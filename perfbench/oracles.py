"""Independent reference computations used to check the library's outputs.

Nothing here imports ``sumsieve``: every oracle recomputes its answer from
first principles with a method that differs from the library's, so that a
shared bug cannot make both sides agree.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from functools import lru_cache

import numpy as np


# --------------------------------------------------------------------------
# primes and factor tables


@lru_cache(maxsize=4)
def prime_list(limit: int) -> np.ndarray:
    """All primes <= limit (plain Eratosthenes over every integer)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@lru_cache(maxsize=2)
def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every n <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in prime_list(math.isqrt(limit)).tolist():
        seg = spf[p * p :: p]
        seg[seg == np.arange(p * p, limit + 1, p)] = p
    return spf


def sifted_count_by_factoring(elements, shifts, ps_primes: np.ndarray) -> int:
    """#{s : no prime of ps divides any s - a_i}, by peeling smallest prime
    factors of every difference |s - a_i| (differences must be small enough
    for a factor table)."""
    s = np.asarray(elements, dtype=np.int64)
    a = np.asarray(shifts, dtype=np.int64)
    diff = np.abs(s[:, None] - a[None, :]).ravel()
    hit = np.zeros(diff.shape, dtype=bool)
    if ps_primes.size:
        hit |= diff == 0  # every prime divides 0
    top = int(diff.max()) if diff.size else 1
    in_ps = np.zeros(max(top, 1) + 1, dtype=bool)
    small = ps_primes[ps_primes <= top]
    in_ps[small] = True
    spf = spf_table(max(top, 2))
    rest = diff.copy()
    live = rest > 1
    while live.any():
        idx = np.flatnonzero(live)
        p = spf[rest[idx]]
        hit[idx] |= in_ps[p]
        rest[idx] //= p
        live = rest > 1
    return int((~hit.reshape(s.size, a.size).any(axis=1)).sum())


def sifted_count_by_lookup(elements, shifts, ps_primes: np.ndarray) -> int:
    """The same count via a forbidden-residue lookup table per prime; used
    where differences are too large to factor."""
    s = np.asarray(elements, dtype=np.int64)
    a = np.asarray(shifts, dtype=np.int64)
    top = int(max(s.max(), a.max()))
    keep = np.ones(s.shape, dtype=bool)
    for p in ps_primes[ps_primes <= top].tolist():
        bad = np.zeros(p, dtype=bool)
        bad[a % p] = True
        keep &= ~bad[s % p]
    if ps_primes.size and ps_primes[-1] > top:
        keep &= ~np.isin(s, a)
    return int(keep.sum())


def avoided_residue_count(x: int, avoided: dict) -> int:
    """#{1 <= n <= x : n mod p not in avoided[p] for every p}."""
    n = np.arange(1, x + 1, dtype=np.int64)
    keep = np.ones(n.shape, dtype=bool)
    for p, residues in avoided.items():
        bad = np.zeros(p, dtype=bool)
        bad[list(residues)] = True
        keep &= ~bad[n % p]
    return int(keep.sum())


# --------------------------------------------------------------------------
# smooth numbers


@lru_cache(maxsize=16)
def smooth_mask(limit: int, y: int) -> np.ndarray:
    """mask[n] is True when every prime factor of n is <= y (n <= limit)."""
    residual = np.arange(limit + 1, dtype=np.int32 if limit < 2**31 else np.int64)
    for p in prime_list(max(y, 2)).tolist():
        if p > y:
            break
        pk = p
        while pk <= limit:
            residual[pk::pk] //= p
            pk *= p
    mask = residual == 1
    mask[0] = False
    return mask


def smooth_values(x: int, y: int, limit: int) -> np.ndarray:
    """All y-smooth n <= x, from the mask built up to ``limit`` >= x."""
    return np.flatnonzero(smooth_mask(limit, y)[: x + 1])


def bv_total(smooth_values: np.ndarray, support: list[int], q_limit: int, k: int) -> float:
    """The discrepancy sum of ``bv_discrepancy_sum`` recomputed from an
    explicit list of moduli (squarefree products of the support)."""
    bound = q_limit * q_limit
    moduli = [(1, 0)]
    for p in support:
        moduli += [(d * p, r + 1) for d, r in moduli if d * p <= bound]
    total = 0.0
    for d, r in moduli:
        if d == 1:
            continue
        counts = np.bincount(smooth_values % d, minlength=d)
        units = [a for a in range(d) if math.gcd(a, d) == 1]
        sub = counts[units]
        total += (3.0 * k) ** r * float(np.abs(sub - sub.sum() / len(units)).max())
    return total


# --------------------------------------------------------------------------
# Dickman rho by its exact power series on unit intervals

# log rho(20) = log(2.4618e-29), the published value the u = 20 anchor must
# meet to within 1e-4 relative
LOG_RHO_20 = -65.874
DICKMAN_MAX_U = 21


@lru_cache(maxsize=1)
def _dickman_series(max_k: int, terms: int = 240, digits: int = 90):
    """Coefficients c[k][i] with rho(u) = sum_i c[k][i] (k - u)^i on
    [k - 1, k], from k * i * c_i = d_{i-1} + (i - 1) c_{i-1} (d = the
    previous interval's coefficients) and continuity at u = k - 1."""
    getcontext().prec = digits
    series = {1: [Decimal(1)] + [Decimal(0)] * (terms - 1)}
    for k in range(2, max_k + 1):
        prev = series[k - 1]
        c = [Decimal(0)] * terms
        for i in range(1, terms):
            c[i] = (prev[i - 1] + (i - 1) * c[i - 1]) / (k * i)
        c[0] = prev[0] - sum(c[1:])
        series[k] = c
    return series


def dickman_rho(u: float) -> Decimal:
    """rho(u) to far better than double precision for 0 <= u <= 21.

    The series on [1, 2] converges like 2^-i, so its truncation error is an
    absolute 2^-240 that later intervals carry along; 240 terms keep that far
    below rho(21) ~ 1e-31."""
    if u <= 1:
        return Decimal(1)
    k = math.ceil(u)
    if k > DICKMAN_MAX_U:
        raise ValueError(f"reference covers u <= {DICKMAN_MAX_U}")
    series = _dickman_series(DICKMAN_MAX_U)
    getcontext().prec = 90
    t = Decimal(k) - Decimal(u)
    total = Decimal(0)
    power = Decimal(1)
    for coeff in series[k]:
        total += coeff * power
        power *= t
    return total


# --------------------------------------------------------------------------
# semigroups and multiplicative sums


def marking_filter(x: int, in_subset) -> np.ndarray:
    """All n <= x with every prime factor accepted by ``in_subset``."""
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for p in prime_list(x).tolist():
        if not in_subset(p):
            mask[p::p] = False
    return np.flatnonzero(mask)


def complete_multiplicative_sum(values: dict, bound: int) -> float:
    """sum over n <= bound of f(n)/n for completely multiplicative f with
    f(p) = values.get(p, 0), by factoring every n."""
    spf = spf_table(max(bound, 2))
    total = 0.0
    for n in range(1, bound + 1):
        term = 1.0
        m = n
        while m > 1 and term != 0.0:
            p = int(spf[m])
            term *= values.get(p, 0.0) / p
            m //= p
        total += term
    return total


# --------------------------------------------------------------------------
# sumsets and decompositions


def to_bits(values) -> int:
    out = 0
    for v in values:
        out |= 1 << v
    return out


def parse_int_list(text: str) -> list[int]:
    """Parse the CLI's comma-list / lo..hi set syntax (no files)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def bits_sum(a_bits: int, b_values) -> int:
    out = 0
    for b in b_values:
        out |= a_bits << b
    return out


def sumset_values(a, b) -> set:
    return {x + y for x in a for y in b}


def decomposable_masks(top: int) -> set:
    """Bitmasks over [0, top] (bit 0 set) of every A + B with 0 in both
    parts, |A|, |B| >= 2 and A + B inside [0, top]."""
    found = set()
    full = 1 << (top + 1)
    subsets = [m for m in range(1, full) if m & 1 and m & (m - 1)]
    elems = {m: [i for i in range(top + 1) if m >> i & 1] for m in subsets}
    for a in subsets:
        a_el = elems[a]
        for b in subsets:
            if b < a or a_el[-1] + elems[b][-1] > top:
                continue
            found.add(bits_sum(b, a_el))
    return found


def decomposable_by_cover(values, min_part: int = 2) -> bool:
    """Exact binary decomposability by branching on the smallest element
    not yet covered.

    After translating to min 0, s = A + B with 0 in both parts, and for a
    given A the largest usable B is the intersection of the translates
    s - a.  If some u of s is not yet in A + B, every solution extending A
    contains an a = u - b with b still in B; branching on those a (or on any
    a while A = {0}) is complete.
    """
    vals = sorted(set(values))
    base = vals[0]
    s_bits = to_bits(v - base for v in vals)
    seen = set()

    def rec(a_set: frozenset, b_bits: int) -> bool:
        if b_bits.bit_count() < min_part or a_set in seen:
            return False
        seen.add(a_set)
        covered = 0
        for a in a_set:
            covered |= b_bits << a
        uncovered = s_bits & ~covered
        if not uncovered and len(a_set) >= min_part:
            return True
        if uncovered:
            u = (uncovered & -uncovered).bit_length() - 1
            candidates = [u - b for b in _members(b_bits & ((2 << u) - 1))]
        else:
            candidates = _members(s_bits)
        for a in candidates:
            if a in a_set or not s_bits >> a & 1:
                continue
            if rec(a_set | {a}, b_bits & (s_bits >> a)):
                return True
        return False

    return rec(frozenset((0,)), s_bits)


def _members(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out
