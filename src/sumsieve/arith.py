"""Multiplicative arithmetic: Mobius, totient, triple-divisor counts, the
lattice walk over a prime list (squarefree or with powers) and its weight
sums, the progression-discrepancy kernel over that walk (shared by the sieve,
smooth-number and irreducibility layers), squarefree supported enumeration and
restricted multiplicative sums.

The comparison inequality implemented by ``check_comparison_inequality`` is a
finite theorem for completely multiplicative 0 <= f(p) <= g(p) < p; any
failure beyond tolerance is a bug, and the property suite treats it so.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .primes import MEMORY_CAP, PrimeSubset, PrimeTable, all_primes, cached, prime_table

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


def _capped_lattice(primes: Sequence[int], bound: int, cap: int, refusal: str) -> np.ndarray:
    """The ``lattice`` with powers up to bound (int64, preorder); more than cap
    raise CapacityError(refusal).  Private, so traced runs count it in its callers."""
    walk = lattice(primes, bound, None, lambda s, p: s, powers=True)
    arr = np.fromiter((n for n, _ in islice(walk, cap + 1)), dtype=np.int64)
    if arr.size > cap:
        raise CapacityError(refusal)
    return arr


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
    """Gamma(t) for t > 0 (relative error well below 1e-10); a Gamma(t) past
    the float range (t below about 5.6e-309, or above 171.6) raises DomainError."""
    if t <= 0:
        raise DomainError(f"need t > 0, got {t}")
    try:
        return math.gamma(t)
    except OverflowError:
        raise DomainError(f"Gamma({t!r}) overflows a float") from None


# --------------------------------------------------------------------------
# progression discrepancies over the lattice


def reduced_residues_mask(d: int) -> np.ndarray:
    """Boolean mask over [0, d) marking residues coprime to d (cached), with
    the multiples of each prime factor of d struck out."""

    def build():
        mask = np.ones(d, dtype=bool)
        for p, _ in factorize(d):
            mask[::p] = False
        return mask

    return cached(("mask", d), build)


def max_progression_deviation(values: np.ndarray, d: int) -> float:
    """max over reduced residues a mod d of |#{v : v = a mod d} - #values/phi(d)|."""
    counts = np.bincount(values % d, minlength=d)
    reduced = reduced_residues_mask(d)
    return float(np.abs(counts[reduced] - values.size / int(np.count_nonzero(reduced))).max())


# Work budget of every discrepancy sum, a modulus d costing d + #values units;
# the BV condition of acceptance criterion 9 spends about 1.24e8.
MODULUS_WORK_CAP = 2 * 10**8
# An uncached max_progression_deviation scan peaks at about 25 bytes per
# residue under tracemalloc (mask, bincount, reduced counts, deviations).
_RESIDUE_BYTES = 32


class DiscrepancyBreakdown(NamedTuple):
    """One modulus of a discrepancy sum (a tuple: cheap to build per modulus)."""

    d: int
    factors: tuple[int, ...]
    weight: float
    max_deviation: float
    term: float


def discrepancy_sum(
    values: np.ndarray, primes: list, d_bound: int, base: float, *, work_cap=MODULUS_WORK_CAP
) -> tuple[float, list[DiscrepancyBreakdown]]:
    """sum over squarefree 1 < d <= d_bound supported on `primes` (ascending)
    of base^omega(d) * max_progression_deviation(values, d), accumulated in
    lattice preorder, with one breakdown row per modulus in that order.

    A modulus whose work would take the total past `work_cap`, or whose
    residue tables would pass MEMORY_CAP, raises CapacityError before its
    scan, carrying partial_sum, partial_breakdown and last_d.
    """
    rows: list[DiscrepancyBreakdown] = []
    total = 0.0
    spent = 0
    for d, factors in lattice(primes, d_bound, (), lambda f, p: f + (p,)):
        if d == 1:
            continue
        spent += d + values.size
        if spent > work_cap or d * _RESIDUE_BYTES > MEMORY_CAP:
            message = ("modulus enumeration budget exceeded" if spent > work_cap
                       else f"the residue tables of modulus {d} would pass the memory cap")
            raise CapacityError(message, partial_sum=total, partial_breakdown=rows, last_d=d)
        dev = max_progression_deviation(values, d)
        weight = base ** len(factors)
        total += weight * dev
        rows.append(DiscrepancyBreakdown(d, factors, weight, dev, weight * dev))
    return total, rows
