"""Shared exception types.

The CLI maps these to exit code 1 with a machine-readable error object;
"hypotheses not satisfied" verdicts are ordinary results, never exceptions.
"""


class SumsieveError(Exception):
    """Base class for all package errors."""


class DomainError(SumsieveError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(SumsieveError, RuntimeError):
    """A configured work, memory or size cap was exceeded.

    Keyword attributes, also kept in ``info``, carry partial progress: ``nodes_explored``
    of the search; ``partial_sum``, ``partial_breakdown`` and ``last_d`` of a discrepancy sum.
    """

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)
        for key, value in info.items():
            setattr(self, key, value)


class DegenerateInputError(DomainError):
    """Input is structurally empty for the requested computation."""


class DivisibilityError(DomainError):
    """A target-set element is divisible by a sieving prime.

    ``pairs`` holds up to ``primes.HIT_CAP`` offending (element, prime)
    pairs, and ``total`` counts every offending element.
    """

    def __init__(self, pairs, total):
        self.pairs = list(pairs)
        self.total = total
        shown = ", ".join(f"{s} divisible by {p}" for s, p in self.pairs[:5])
        more = "" if self.total <= 5 else f" (+{self.total - 5} more)"
        super().__init__(f"target set hits sieving primes: {shown}{more}")
