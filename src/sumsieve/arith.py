"""Multiplicative arithmetic: Mobius, totient, triple-divisor counts, the
lattice walk over a prime list (squarefree or with powers) and its weight
sums, squarefree supported enumeration and restricted multiplicative sums.

The comparison inequality implemented by ``check_comparison_inequality`` is a
finite theorem for completely multiplicative 0 <= f(p) <= g(p) < p; any
failure beyond tolerance is a bug, and the property suite treats it so.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DomainError
from .primes import PrimeSubset, PrimeTable, all_primes, prime_table

EULER_GAMMA = 0.57721566490153286061

_COMPARISON_SLACK = 1e-9


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation by trial division, ascending primes."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 2 if p % 3 == 2 else 4  # skip multiples of 2 and 3
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def tau3(n: int) -> int:
    """Number of ordered triples (u, v, w) with uvw = n."""
    result = 1
    for _, e in factorize(n):
        result *= (e + 1) * (e + 2) // 2
    return result


# --------------------------------------------------------------------------
# multiplicative specs and restricted sums


@dataclass(frozen=True)
class MultiplicativeSpec:
    """Non-negative multiplicative function given by its prime values (0 off
    the support); ``restricted_multiplicative_sum``'s mode says how it
    extends past the primes."""

    prime_values: Mapping[int, float]

    def __post_init__(self):
        for p, v in self.prime_values.items():
            if v < 0:
                raise DomainError(f"negative value f({p}) = {v}")

    def at_prime(self, p: int) -> float:
        return float(self.prime_values.get(p, 0.0))

    def support(self) -> list[int]:
        return sorted(p for p, v in self.prime_values.items() if v != 0.0)


def lattice(
    primes: Sequence[int], bound: int, root, step: Callable, *, powers: bool = False
) -> Iterator[tuple[int, object]]:
    """Every n <= bound whose prime factors all lie in `primes` (ascending),
    squarefree unless `powers`, as (n, state) pairs in preorder: n, then for
    each larger prime p and e >= 1 in turn (e = 1 only without `powers`),
    n * p^e followed by its own subtree over the primes above p; this is the
    lexicographic order of the (p, e) factorisations.  1 carries `root`;
    n * p carries step(state of n, p).  A child n * p with n * p^2 > bound
    has no children of its own; those leaf children come last, as one run
    over a slice of `primes`.  Lazy: nothing past the last pair taken is
    visited.
    """
    if bound < 1:
        return
    yield 1, root
    # [n, state, next prime index, first leaf index, first prime index of n's subtree]
    stack = [[1, root, 0, bisect_right(primes, math.isqrt(bound)), 0]]
    while stack:
        frame = stack[-1]
        n, state, j, leaves, first = frame
        if j < leaves:
            frame[2] = j + 1
        else:
            stack.pop()
            for p in primes[leaves : bisect_right(primes, bound // n, leaves)]:
                yield n * p, step(state, p)
            # with powers, n = m * p^e is followed by its sibling m * p^(e + 1)
            j = first - 1
            if not (powers and first and n * primes[j] <= bound):
                continue
        p = primes[j]
        child, child_state = n * p, step(state, p)
        yield child, child_state
        stack.append([child, child_state, j + 1,
                      bisect_right(primes, math.isqrt(bound // child), j + 1), j + 1])


def lattice_sum(primes: Sequence[int], weights: Mapping[int, float], bound: int, *,
                powers: bool = False) -> float:
    """sum over the `lattice` of n <= bound of prod weights[p] over the prime
    factors of n, with multiplicity when `powers`.

    Includes n = 1 (term 1); accumulated in lattice preorder.
    """
    total = 0.0
    for _, term in lattice(primes, bound, 1.0, lambda t, p: t * weights[p], powers=powers):
        total += term
    return total


def enumerate_squarefree_supported(
    ps: PrimeSubset, bound: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """All squarefree q <= bound with every prime factor in ps, ascending.

    Yields (q, prime factors); q = 1 comes first with an empty factorisation.
    """
    if bound < 1:
        raise DomainError(f"need bound >= 1, got {bound}")
    support = ps.primes_in(1, bound).tolist()
    return iter(sorted(lattice(support, bound, (), lambda f, p: f + (p,))))


def restricted_multiplicative_sum(
    spec: MultiplicativeSpec,
    ps: PrimeSubset,
    bound: int,
    mode: str = "squarefree",
) -> float:
    """Exact sum restricted to ps-supported integers up to bound.

    mode="squarefree": sum over squarefree supported q of prod_{p|q} f(p)/p.
    mode="complete":   sum over all supported n of f(n)/n, f completely
                       multiplicative.
    Includes the n = 1 term (equal to 1).  Both sums run in lattice preorder.
    """
    if bound < 1:
        raise DomainError(f"need bound >= 1, got {bound}")
    if mode not in ("squarefree", "complete"):
        raise DomainError(f"unknown mode {mode!r}")
    support = [p for p in spec.support() if p <= bound and ps.contains(p)]
    weights = {p: spec.at_prime(p) / p for p in support}
    return lattice_sum(support, weights, bound, powers=mode == "complete")


@dataclass(frozen=True)
class ComparisonResult:
    lhs: float
    rhs: float
    holds: bool


def check_comparison_inequality(
    f: MultiplicativeSpec, g: MultiplicativeSpec, bound: int, table: PrimeTable | None = None
) -> ComparisonResult:
    """Check sum f(n)/n >= prod(1 - g/p) * prod(1 - f/p)^(-1) * sum g(n)/n.

    Both sums run over n <= bound, both products over primes p <= bound.
    Requires 0 <= f(p) <= g(p) < p for every prime p <= bound.
    """
    union = [p for p in sorted(set(f.support()) | set(g.support())) if p <= bound]
    for p in union:
        fp, gp = f.at_prime(p), g.at_prime(p)
        if not (0.0 <= fp <= gp < p):
            raise DomainError(f"need 0 <= f(p) <= g(p) < p at p={p}: f={fp}, g={gp}")
    everything = all_primes(prime_table(max(bound, 2)) if table is None else table)
    lhs = restricted_multiplicative_sum(f, everything, bound, mode="complete")
    sum_g = restricted_multiplicative_sum(g, everything, bound, mode="complete")
    log_ratio = 0.0
    for p in union:
        fp, gp = f.at_prime(p), g.at_prime(p)
        log_ratio += math.log1p(-gp / p) - math.log1p(-fp / p)
    rhs = math.exp(log_ratio) * sum_g
    return ComparisonResult(lhs, rhs, lhs >= rhs - _COMPARISON_SLACK)


def gamma_function(t: float) -> float:
    """Gamma(t) for t > 0 (relative error well below 1e-10)."""
    if t <= 0:
        raise DomainError(f"need t > 0, got {t}")
    return math.gamma(t)
