"""Multiplicative arithmetic: Mobius, totient, triple-divisor counts, the
lattice walk over a prime list (squarefree or with powers) and its weight
sums, the progression-discrepancy kernel over that walk (shared by the sieve,
smooth-number and irreducibility layers: the residues of a group of moduli
counted in one histogram, groups sized by their bytes), squarefree supported
enumeration and restricted multiplicative sums.

The comparison inequality implemented by ``check_comparison_inequality`` is a
finite theorem for completely multiplicative 0 <= f(p) <= g(p) < p; any
failure beyond tolerance is a bug, and the property suite treats it so.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .primes import (ENTRY_CAP, MEMORY_CAP, PrimeSubset, PrimeTable, _power, all_primes, cached,
                     prime_table)

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


def _walk_sum(primes: Sequence[int], bound: int, root, step: Callable, term: Callable,
              refusal: str, *, powers: bool = False) -> float:
    """sum of term((n, state)) over ``lattice(primes, bound, root, step, powers=powers)``,
    in preorder with +=.  More than ENTRY_CAP pairs raise CapacityError(refusal.format(
    ENTRY_CAP)): at once when the products of at most j of `primes` (ascending), each at
    most max(primes)^j <= bound (or the pairs at most bound, counted), already number
    more, else when the walk passes the cap (no later pair is drawn).  Private."""
    cap = ENTRY_CAP
    if not primes and bound >= 1 and cap:
        return 0.0 + term((1, root))  # no walk; as its loop adds it, -0.0 reads 0.0
    # 2^m squarefree products at most: fewer primes than the cap's bits never pass it
    count, j, m = 1, 0, len(primes)
    while m >= cap.bit_length() and count <= cap and primes[-1] ** (j + 1) <= bound:
        j += 1
        count += math.comb(m, j)
    if j == 1 and count <= cap < count + math.comb(m, 2):
        # the q in (p, bound // p] of each p <= sqrt(bound); object quotients past int64
        arr = np.asarray(primes, dtype=np.int64 if bound < 2**63 else object)
        low = arr[: bisect_right(primes, math.isqrt(bound))]
        count += int(np.searchsorted(arr, bound // low, "right").sum()) - math.comb(low.size + 1, 2)
    if count > cap:
        raise CapacityError(refusal.format(cap))
    walk = lattice(primes, bound, root, step, powers=powers)
    total = 0.0
    for value in map(term, islice(walk, cap)):
        total += value
    if next(walk, None) is not None:
        raise CapacityError(refusal.format(cap))
    return total


def lattice_sum(primes: Sequence[int], weights: Mapping[int, float], bound: int, *,
                powers: bool = False) -> float:
    """sum over the `lattice` of n <= bound of prod weights[p] over the prime
    factors of n, with multiplicity when `powers`.

    Includes n = 1 (term 1); accumulated in lattice preorder by ``_walk_sum``,
    so more than ENTRY_CAP terms raise CapacityError.
    """
    return _walk_sum(primes, bound, 1.0, lambda t, p: t * weights[p], itemgetter(1),
                     "the weighted lattice sum runs over more than {} n", powers=powers)


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
    Includes the n = 1 term (equal to 1).  Both sums run in lattice preorder
    (``lattice_sum``): more than ENTRY_CAP terms raise CapacityError.
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


# Work budget of every discrepancy sum, a modulus d costing d + #values units;
# the BV condition of acceptance criterion 9 spends about 1.24e8.
MODULUS_WORK_CAP = 2 * 10**8
# The bytes a modulus d's residue tables count against MEMORY_CAP.  Under
# tracemalloc, with no reduced-residue mask cached, the group kernel peaks at
# 11-17 bytes per residue (bins, masks, non-reduced offsets), a group of one
# at 11-17 (the one-modulus scan it replaced at up to 32).
_RESIDUE_BYTES = 32
# The bytes one group of moduli counts, capped at MEMORY_CAP when a sum
# starts.  A modulus counts its value row plus the int64 copy np.bincount
# makes of an int32 row (the measured peak: 12 bytes a value, 8 for int64
# rows) and d * _RESIDUE_BYTES, so a group's peak stays within its count.
# Measured on the 66 small-k BV sums of the sieve-soundness op sets at seeds 1
# and 5 (about 950 values, d <= 1764): one scan per modulus took 43-46 ms, a
# budget of 2^16, 2^18, 2^19, 2^20, 2^21 or 2^22 bytes 43-47, 28-30, 24-27,
# 22-23.5, 23.5-26 or 24-25 ms (2-vCPU Xeon, numpy 2.4).  Smaller groups pay
# numpy's per-call overhead, larger ones fresh temporaries past the cache.
# The freed blocks glibc keeps raised the benchmark's peak RSS by 0.7 MB at
# 2^20 and by 0.4 MB at 2^19.
_GROUP_BYTES = 1 << 19


class DiscrepancyBreakdown(NamedTuple):
    """One modulus of a discrepancy sum (a tuple: cheap to build per modulus)."""

    d: int
    factors: tuple[int, ...]
    weight: float
    max_deviation: float
    term: float


def _max_deviations(values: np.ndarray, moduli: list[int]) -> list[float]:
    """max over reduced residues a mod d of |#{v : v = a mod d} - #values/phi(d)|, for each
    d in `moduli`.  Each modulus's residues v - (v // d) * d (a scalar divisor) fill one
    row of a block, offset by the modulus's start in one histogram over all the group's
    residues; the largest and smallest reduced counts hi and lo of each segment give
    max(hi - x, x - lo), x = #values/phi(d): the bits of the largest |count - x|."""
    size = values.size
    if len(moduli) == 1:  # no offsets, segments or sentinels
        d = moduli[0]
        residues = values // d
        residues *= -d
        residues += values
        counts = np.bincount(residues, minlength=d)[reduced_residues_mask(d)]
        x = size / counts.size
        return [max(float(np.maximum.reduce(counts)) - x, x - float(np.minimum.reduce(counts)))]
    edges = [0, *accumulate(moduli)]  # each modulus's first bin, then the end
    divisors, starts = np.array([moduli, edges[:-1]], dtype=values.dtype)
    block = np.empty((len(moduli), size), dtype=values.dtype)
    for row, d in zip(block, divisors):
        np.floor_divide(values, d, out=row)
    block *= -divisors[:, None]
    block += values
    block += starts[:, None]
    counts = np.bincount(block.ravel(), minlength=edges[-1])
    off = np.flatnonzero(~np.concatenate([reduced_residues_mask(d) for d in moduli]))
    cuts = np.searchsorted(off, edges)
    phi = divisors - (cuts[1:] - cuts[:-1])
    counts[off] = -1
    hi = np.maximum.reduceat(counts, starts)
    counts[off] = size
    lo = np.minimum.reduceat(counts, starts)
    x = size / phi
    return np.maximum(hi - x, x - lo).tolist()


def discrepancy_sum(
    values: np.ndarray, primes: list, d_bound: int, base: float, *, work_cap=MODULUS_WORK_CAP
) -> tuple[float, list[DiscrepancyBreakdown]]:
    """sum over squarefree 1 < d <= d_bound supported on `primes` (ascending)
    of base^omega(d) times the largest deviation over the reduced residues a
    mod d of #{v in values : v = a mod d} from #values/phi(d), accumulated in
    lattice preorder, with one breakdown row per modulus in that order.  A
    weight is ``primes._power(base, omega(d))``, inf past the float range (an
    inf base included), and a zero deviation's term is 0, never NaN.

    The deviations come from ``_max_deviations`` a group of consecutive moduli
    at a time, a group holding at most min(_GROUP_BYTES, MEMORY_CAP) counted
    bytes (a modulus past that alone makes a group of one); values in
    [0, 2^31) with d_bound below 2^31 make int32 rows, any others int64 rows.
    A modulus whose work would take the total past `work_cap`, or whose
    residue tables would pass MEMORY_CAP, raises CapacityError before its
    scan, carrying partial_sum, partial_breakdown and last_d; the moduli
    before it are scanned first.
    """
    size = values.size
    int32_rows = size and values.min() >= 0 and values.max() < 2**31 and d_bound < 2**31
    values = values.astype(np.int32 if int32_rows else np.int64, copy=False)
    row_bytes = size * (12 if int32_rows else 8)
    budget = min(_GROUP_BYTES, MEMORY_CAP)
    rows: list[DiscrepancyBreakdown] = []
    total = 0.0
    moduli: list[int] = []
    group: list[tuple[int, ...]] = []

    def scan():
        nonlocal total
        if not moduli:
            return
        for d, factors, dev in zip(moduli, group, _max_deviations(values, moduli)):
            weight = _power(base, len(factors))
            term = weight * dev if dev else 0.0
            total += term
            rows.append(DiscrepancyBreakdown(d, factors, weight, dev, term))
        moduli.clear()
        group.clear()

    spent = used = 0
    for d, factors in lattice(primes, d_bound, (), lambda f, p: f + (p,)):
        if d == 1:
            continue
        spent += d + size
        if spent > work_cap or d * _RESIDUE_BYTES > MEMORY_CAP:
            scan()
            message = ("modulus enumeration budget exceeded" if spent > work_cap
                       else f"the residue tables of modulus {d} would pass the memory cap")
            raise CapacityError(message, partial_sum=total, partial_breakdown=rows, last_d=d)
        cost = row_bytes + d * _RESIDUE_BYTES
        if used + cost > budget:
            scan()
            used = 0
        moduli.append(d)
        group.append(factors)
        used += cost
    scan()
    return total, rows
