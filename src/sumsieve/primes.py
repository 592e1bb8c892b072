"""Prime tables, selector-defined prime subsets and prime partial sums.

A ``PrimeTable`` is an exact Eratosthenes sieve over [2, limit] (odd-only byte
mask), sieved only as far as its queries reach: a query past the reach
extends it, in segments of 2^21 odd numbers, to at least twice the reach and
never past the limit.  The package builds its tables only through
``prime_table`` and ``primes_up_to``, cached and cap-checked at the full
limit before anything is sieved.  A
``PrimeSubset`` pairs a table with an immutable selector; every sieve formula
draws its primes and its partial sums (theta, Mertens-type) from here, through
``PrimeSubset.primes_in``, the one table-coverage rule: a range past the table
raises CapacityError unless the selector is bounded inside the table (no other
module reads a table's limit).
The one prime-factor kernel is ``multiples`` (which n <= top some listed
prime divides, one byte each, built per call), behind tuple counts and
``survivors``, the one sift: the values v != a (mod p) for every class a and
prime p of a subset, which alone picks a gather from that mask or, past the
mask's caps, a sweep prime by prime.  Sifted counts and divisibility scans
are ``survivors`` calls; its primes, too, come through ``primes_in``.
``shift_class_hits`` is the one shift-class test (v = a_i mod p, from a bool
table over [0, p)) behind that sweep and Selberg's remainder,
``residue_counts`` the one residue-occupancy kernel,
and ``cached`` the package's one cache (tables, masks and the density ratio
c: one multiples mask and one ratio per (P0, x), never a mask of a
per-instance subset such as P0*), bounded in bytes by the memory cap, a
fixed per-entry overhead included and each table charged its full-limit bound.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import CapacityError, DegenerateInputError, DomainError

# the largest prime table limit
LIMIT_CAP = 2**40
# SUMSIEVE_MEMORY_CAP (approximate bytes, read once at import) bounds the
# largest table or memo the package builds, and everything `cached` holds
MEMORY_CAP = int(os.environ.get("SUMSIEVE_MEMORY_CAP", 2 * 10**9))
# the most int64 values an integer set, a sumset or Q(T) holds
VALUE_CAP = MEMORY_CAP // 8
# the most entries of about 100 bytes each: smooth-number memo entries and
# enumerated smooth numbers, rows of a Dickman table
ENTRY_CAP = MEMORY_CAP // 100
# the largest temporary array a blocked kernel builds at once
BLOCK_BYTES = min(1 << 24, MEMORY_CAP)
# divisibility_hits pairs at most this many hit values with a prime
HIT_CAP = 20
_SEGMENT_ODDS = 1 << 21


class PrimeTable:
    """Exact primality over [2, limit] with the ascending list of its primes.

    The table is sieved on demand: a query reaching n first extends it to n.
    Each extension at least doubles the reach, never passes the limit and
    allocates only the reach it sieves.
    """

    __slots__ = ("limit", "_odd_mask", "_primes")

    def __init__(self, limit: int):
        if limit < 2:
            raise DomainError(f"prime table limit must be >= 2, got {limit}")
        if limit > LIMIT_CAP:
            raise CapacityError(
                f"prime table limit {limit} exceeds cap {LIMIT_CAP}", limit=limit
            )
        self.limit = int(limit)
        # sieved to 2: index i of the odd mask is n = 2i + 1, and 1 is no prime
        self._odd_mask = np.zeros(1, dtype=bool)
        self._primes = np.array([2], dtype=np.int64)

    def _extend(self, n: int) -> None:
        """Sieve on to max(n, twice the reach), never past the limit.  The
        table first reaches the new reach's root, and the odd primes up to
        that root strike out the new part in segments of 2^21 odds."""
        if n <= 2 * self._odd_mask.size:
            return
        top = min(self.limit, max(n, 4 * self._odd_mask.size))
        root = math.isqrt(top)
        self._extend(root)
        old = self._odd_mask
        base = self._primes[1 : np.searchsorted(self._primes, root, side="right")].tolist()
        size = (top + 1) // 2
        mask = np.empty(size, dtype=bool)
        mask[: old.size] = old
        for lo in range(old.size, size, _SEGMENT_ODDS):
            seg = mask[lo : lo + _SEGMENT_ODDS]
            seg[:] = True
            n_lo = 2 * lo + 1
            for p in base:
                start = max(p * p, ((n_lo + p - 1) // p) * p)
                if start % 2 == 0:
                    start += p
                seg[(start // 2) - lo :: p] = False
        # built in place, at the table's own size: the slot of 1 stands in for 2
        mask[0] = True
        primes = np.flatnonzero(mask)
        mask[0] = False
        primes *= 2
        primes += 1
        primes[0] = 2
        # the prime list first: a reader that sees the new reach sees its primes
        self._primes, self._odd_mask = primes, mask

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise CapacityError(f"{n} exceeds table limit {self.limit}", limit=self.limit)
        if n < 2:
            return False
        if n == 2:
            return True
        if n % 2 == 0:
            return False
        self._extend(n)
        return bool(self._odd_mask[n // 2])

    @property
    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (int64)."""
        self._extend(self.limit)
        return self._primes

    def primes_between(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, ascending."""
        if hi > self.limit:
            raise CapacityError(
                f"range end {hi} exceeds table limit {self.limit}", limit=self.limit
            )
        top = self._int_bound(hi)
        self._extend(self.limit if math.isnan(top) else top)
        ps = self._primes
        # integer bounds keep searchsorted from casting the table to float
        i = np.searchsorted(ps, self._int_bound(lo), side="right")
        j = np.searchsorted(ps, top, side="right")
        return ps[i:j]

    def _int_bound(self, v: float):
        """An int with as many table primes <= it as v (non-finite v as is)."""
        if not math.isfinite(v):
            return v
        return math.floor(min(max(v, 0), self.limit))

    @property
    def nbytes(self) -> int:
        """Bytes held so far: the odd mask and the prime list, as far as sieved."""
        return int(self._odd_mask.nbytes + self._primes.nbytes)

    def __repr__(self):
        return f"PrimeTable(limit={self.limit})"


def table_bytes_bound(limit: int) -> int:
    """Bytes a table of `limit` (>= 2) holds at most, sieved to its limit: the
    odd mask and the int64 prime list, by pi(n) < 1.25506 n / log n (Rosser &
    Schoenfeld 1962)."""
    return math.ceil((limit + 1) // 2 + 8 * 1.25506 * limit / math.log(limit))


def prime_table(limit: int) -> PrimeTable:
    """The table of exactly `limit`, from the one cache, which charges it
    table_bytes_bound(limit) however far it is sieved; a table whose bound
    passes MEMORY_CAP raises CapacityError before it is built."""
    charge = table_bytes_bound(limit) if limit >= 2 else 0
    if charge > MEMORY_CAP:
        raise CapacityError(f"prime table limit {limit} would pass the memory cap", limit=limit)
    return cached(("table", limit), lambda: PrimeTable(limit), charge)


def primes_up_to(n: float) -> np.ndarray:
    """The primes <= n (read-only), from the cached table of the next power
    of two (at least 1024), so that nearby n share one table."""
    return prime_table(max(1024, 1 << max(int(n) - 1, 0).bit_length())).primes_between(1, n)


# --------------------------------------------------------------------------
# selectors


class Selector:
    """Immutable predicate over primes, vectorised via ``mask``."""

    def mask(self, primes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, p: int) -> bool:
        return bool(self.mask(np.asarray([p], dtype=np.int64))[0])

    def upper(self) -> float:
        """A bound no selected prime passes."""
        return math.inf

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class AllPrimes(Selector):
    def mask(self, primes):
        return np.ones(primes.shape, dtype=bool)

    def contains(self, p):
        return True

    def describe(self):
        return "all"


@dataclass(frozen=True)
class Interval(Selector):
    """Primes p with lo < p <= hi."""

    lo: float
    hi: float

    def mask(self, primes):
        return (primes > self.lo) & (primes <= self.hi)

    def contains(self, p):
        return self.lo < p <= self.hi

    def upper(self):
        return self.hi

    def describe(self):
        return f"interval:{self.lo:g},{self.hi:g}"


@dataclass(frozen=True)
class ResidueClass(Selector):
    """Primes p with p = a (mod m)."""

    a: int
    m: int

    def __post_init__(self):
        if self.m < 1 or not (0 <= self.a < self.m):
            raise DomainError(f"bad residue class {self.a} mod {self.m}")

    def mask(self, primes):
        return primes % self.m == self.a

    def contains(self, p):
        return p % self.m == self.a

    def describe(self):
        return f"ap:{self.a},{self.m}"


@dataclass(frozen=True)
class Excluding(Selector):
    """All primes except a finite set."""

    excluded: frozenset

    def mask(self, primes):
        if not self.excluded:
            return np.ones(primes.shape, dtype=bool)
        banned = np.fromiter(self.excluded, dtype=np.int64, count=len(self.excluded))
        return ~np.isin(primes, banned)

    def contains(self, p):
        return p not in self.excluded

    def describe(self):
        return "not:" + ",".join(str(v) for v in sorted(self.excluded))


@dataclass(frozen=True)
class MinValue(Selector):
    """Primes p >= threshold."""

    threshold: float

    def mask(self, primes):
        return primes >= self.threshold

    def contains(self, p):
        return p >= self.threshold

    def describe(self):
        return f"min:{self.threshold:g}"


@dataclass(frozen=True)
class And(Selector):
    parts: tuple

    def mask(self, primes):
        out = np.ones(primes.shape, dtype=bool)
        for part in self.parts:
            out &= part.mask(primes)
        return out

    def contains(self, p):
        return all(part.contains(p) for part in self.parts)

    def upper(self):
        return min((part.upper() for part in self.parts), default=math.inf)

    def describe(self):
        return "and(" + ";".join(part.describe() for part in self.parts) + ")"


ALL = AllPrimes()


@dataclass(frozen=True, eq=False)
class PrimeSubset:
    """A prime table restricted by a selector (the sieving sets P0, P0*, T)."""

    base: PrimeTable
    selector: Selector = ALL

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """The selected primes p with lo < p <= hi; CapacityError when the
        table stops short of hi and the selector could pass a prime beyond it."""
        arr = self.base.primes_between(lo, min(hi, self.selector.upper()))
        if isinstance(self.selector, AllPrimes):
            return arr
        return arr[self.selector.mask(arr)]

    def primes(self) -> np.ndarray:
        return self.primes_in(0, self.base.limit)

    def contains(self, p: int) -> bool:
        """p is a selected prime; only a p the selector passes meets the table."""
        return self.selector.contains(p) and self.base.is_prime(p)

    def is_empty(self) -> bool:
        return self.primes().size == 0

    def describe(self) -> str:
        return self.selector.describe()


def all_primes(table: PrimeTable) -> PrimeSubset:
    return PrimeSubset(table, ALL)


# --------------------------------------------------------------------------
# partial sums


@dataclass(frozen=True)
class PrimeSums:
    """theta = sum log p, mertens_log = sum log p / p, mertens_recip = sum 1/p."""

    theta: float
    mertens_log: float
    mertens_recip: float

    def __add__(self, other: "PrimeSums") -> "PrimeSums":
        return PrimeSums(
            self.theta + other.theta,
            self.mertens_log + other.mertens_log,
            self.mertens_recip + other.mertens_recip,
        )


def subset_sums(ps: PrimeSubset, lo: float, hi: float) -> PrimeSums:
    """Partial sums over primes p in ps with lo < p <= hi.

    Accumulated in ascending order in double precision; the rounding error is
    far below the 1e-9 relative budget at table scales.
    """
    if not 0 <= lo < hi:  # a NaN bound fails too
        raise DomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    theta = 0.0
    mlog = 0.0
    mrec = 0.0
    for p in ps.primes_in(lo, hi).tolist():
        lp = math.log(p)
        theta += lp
        mlog += lp / p
        mrec += 1.0 / p
    return PrimeSums(theta, mlog, mrec)


def density_ratio_c(
    ps: PrimeSubset, x: int, *, window_floor_exponent: float = 0.1
) -> float:
    """Minimum over dyadic windows (y/2, y] of theta_ps(window)/theta_all(window).

    Windows run y = sqrt(x), sqrt(x)/2, ... while y >= x^window_floor_exponent.
    The returned value is a mesh infimum: the windows actually consumed
    downstream are exactly these.  Windows containing no primes at all carry
    no information and are skipped.

    Memoised in ``cached`` under (table limit, selector, x, exponent): the
    value depends on nothing else, since tables of one limit hold the same
    primes and selectors compare by value.  An error is raised on every call
    and never kept.
    """
    key = ("density_c", ps.base.limit, ps.selector, x, window_floor_exponent)
    return cached(key, lambda: _density_ratio_c(ps, x, window_floor_exponent))


def _density_ratio_c(ps: PrimeSubset, x: int, window_floor_exponent: float) -> float:
    if x < 100:
        raise DomainError(f"need x >= 100, got {x}")
    everything = all_primes(ps.base)
    floor = x**window_floor_exponent
    y = math.sqrt(x)
    ratios = []
    while y >= floor:
        theta_all = subset_sums(everything, y / 2, y).theta
        if theta_all > 0:
            theta_sub = subset_sums(ps, y / 2, y).theta
            ratios.append(theta_sub / theta_all)
        y /= 2
    if not ratios:
        raise DegenerateInputError("no dyadic window contains a prime")
    if max(ratios) == 0.0:
        raise DegenerateInputError("subset contributes no prime to any window")
    return min(ratios)


# --------------------------------------------------------------------------
# the one cache


class _ByteCache(OrderedDict):
    """key -> (value, nbytes), least recently used first."""

    nbytes = 0  # the entries' total bytes


_CACHE = _ByteCache()
# bytes counted for each entry beyond its value's nbytes: the key, the entry
# tuple, the dict slot and a scalar value (about 360 for a density memo entry)
ENTRY_BYTES = 512


def cached(key: Hashable, build: Callable, nbytes: int | None = None):
    """build(), or the value the package's one cache holds under key.

    An entry counts ENTRY_BYTES plus nbytes, or its value's nbytes when none
    is given (0 for a scalar without one), and the entries' bytes stay within
    MEMORY_CAP: the least recently used make way for a new one, and an entry
    larger than the cap on its own is returned without being kept.  An
    exception from build() propagates and nothing is kept.
    """
    cache = _CACHE
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
        return entry[0]
    value = build()
    if nbytes is None:
        nbytes = getattr(value, "nbytes", 0)
    size = ENTRY_BYTES + int(nbytes)
    if size <= MEMORY_CAP:
        while cache.nbytes + size > MEMORY_CAP:
            cache.nbytes -= cache.popitem(last=False)[1][1]
        cache[key] = (value, size)
        cache.nbytes += size
    return value


# --------------------------------------------------------------------------
# the sift (exact: one multiples mask, or one sweep past its caps)

# values up to this bound are scanned through a multiples mask (1 byte each)
MASK_CAP = 5 * 10**7
# primes with at least this many multiples are marked by one strided slice
_SLICE_MULTIPLES = 64


def _mask_fits(top: int) -> bool:
    """Whether a multiples mask over [0, top] stays within its caps."""
    return top <= MASK_CAP and top + 1 <= MEMORY_CAP


def multiples(primes: np.ndarray, top: int) -> np.ndarray:
    """Bool mask over [0, top]: a prime in primes (ascending, none above top)
    divides n, so m[0] holds for any primes; one byte each, capped by the caller.

    Primes with many multiples take one slice each; the rest share index
    arrays of at most BLOCK_BYTES (or of one prime's multiples, if larger).
    """
    m = np.zeros(top + 1, dtype=bool)
    m[0] = primes.size > 0
    split = int(np.searchsorted(primes, top // _SLICE_MULTIPLES, side="right"))
    for p in primes[:split].tolist():
        m[p::p] = True
    # the rest have fewer than _SLICE_MULTIPLES multiples each
    step = max(1, BLOCK_BYTES // (16 * _SLICE_MULTIPLES))  # two int64 temporaries
    for lo in range(split, primes.size, step):
        block = primes[lo : lo + step]
        counts = top // block
        k = np.arange(1, int(counts.sum()) + 1, dtype=np.int64)
        k -= np.repeat(np.cumsum(counts) - counts, counts)
        k *= np.repeat(block, counts)
        m[k] = True
    return m


def survivors(values: np.ndarray, classes: np.ndarray, ps: PrimeSubset) -> np.ndarray:
    """The values v != a (mod p) for every a in classes and p in ps (int64
    arrays, >= 0), in their given order: the one sift.

    For top the largest value or class, within the mask's caps that is one
    gather at |v - a| from a ``multiples`` mask over the primes of ps up to
    min(top, table limit), its m[0] set when ps has any prime (every prime
    sifts out v = a); beyond them a sweep by ``shift_class_hits`` over the
    primes of ps up to top and the first above it (which sifts out exactly
    the v equal to a class), ascending and stopped once no value is left.
    """
    if values.size == 0:
        return values
    top = int(max(values.max(), classes.max()))
    if _mask_fits(top):
        bound = min(top, ps.base.limit)
        m = multiples(ps.primes_in(0, bound), top)
        m[0] = m[0] or ps.primes_in(bound, ps.base.limit).size > 0
        return values[~m[np.abs(values[:, None] - classes[None, :])].any(axis=1)]
    plist = ps.primes()
    for p in plist[: np.searchsorted(plist, top, side="right") + 1].tolist():
        values = values[~shift_class_hits(values, classes, p)]
        if values.size == 0:
            break
    return values


def kept_multiples_mask(ps: PrimeSubset, top: int) -> np.ndarray | None:
    """m[n] for 1 <= n <= top: a prime of ``ps.primes_in(0, top)`` divides n,
    from ``multiples``, kept in the one cache under (table limit, selector,
    top), the density ratio's key shape; None when the mask passes its caps
    or when ``primes_in`` would refuse top.

    For a subset fixed over many calls, such as P0: a selector that changes
    per call (a P0* threshold) would fill the cache with masks read once.
    """
    if not _mask_fits(top) or min(top, ps.selector.upper()) > ps.base.limit:
        return None
    key = ("multiples", ps.base.limit, ps.selector, top)
    return cached(key, lambda: multiples(ps.primes_in(0, top), top))


def divisibility_hits(
    values: Sequence[int] | np.ndarray, ps: PrimeSubset
) -> tuple[list[tuple[int, int]], int]:
    """The values > 1 that a prime of ps divides: the first HIT_CAP of them,
    in value order, each paired with its smallest prime in ps, and how many
    there are.

    The primes are ``ps.primes_in(0, top)`` for the largest value top, so a
    table short of top is refused, as every range is, unless the selector is
    bounded inside it.  The hits are the values > 1 that ``survivors`` with
    the one class 0 sifts out.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        return [], 0
    primes = ps.primes_in(0, int(arr.max()))
    arr = arr[arr > 1]
    kept = survivors(arr, np.zeros(1, dtype=np.int64), ps)
    if kept.size == arr.size:
        return [], 0
    hits: list[tuple[int, int]] = []
    for v in arr[~np.isin(arr, kept)][:HIT_CAP].tolist():
        found = primes[: np.searchsorted(primes, v, side="right")]
        hits.append((v, int(found[v % found == 0][0])))
    return hits, int(arr.size - kept.size)


def shift_class_hits(values: np.ndarray, shifts: np.ndarray, p: int) -> np.ndarray:
    """Bool mask over values: v = a (mod p) for some a in shifts (int64 arrays).

    One bool table over [0, p) marks the shift classes; values index it by
    v - (v // p) * p, which numpy computes faster than v % p.
    """
    table = np.zeros(p, dtype=bool)
    table[shifts % p] = True
    return table[values - (values // p) * p]


# --------------------------------------------------------------------------
# residue occupancy


def residue_counts(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """nu(p) = #{v mod p : v in values} for each p in primes (int64).

    One row of residues per prime, sorted, counting the changes along it; the
    rows go in blocks of at most BLOCK_BYTES (or of one row, if larger).
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    primes = np.asarray(primes, dtype=np.int64).reshape(-1)
    out = np.zeros(primes.size, dtype=np.int64)
    if values.size == 0:
        return out
    rows = max(1, BLOCK_BYTES // (8 * values.size))
    for lo in range(0, primes.size, rows):
        residues = values[None, :] % primes[lo : lo + rows, None]
        residues.sort(axis=1)
        out[lo : lo + rows] = 1 + np.count_nonzero(residues[:, 1:] != residues[:, :-1], axis=1)
    return out
