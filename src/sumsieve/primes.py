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
module reads a table's limit).  It slices the table's prime list, or the
cached primes (and math.log values) of the selector's class part.
The one prime-factor kernel is ``_mark`` (the multiples of listed primes),
behind ``multiples`` (which n <= top some listed prime divides, one byte
each, built per call, behind tuple counts) and the factor table of a subset
fixed over many calls such as P0 (the largest of its primes dividing n, 4
bytes each, cached).  ``survivors`` is the one sift: the values v != a
(mod p) for every class a and prime p of a subset, which alone picks a
gather from the factor table (for a floor subset such as P0*), from a
multiples mask or, past their caps, a sweep prime by prime.  Sifted counts
and divisibility scans are ``survivors`` calls; its primes, too, come
through ``primes_in``.
``shift_class_hits`` is the one shift-class test (v = a_i mod p) behind that
sweep and a sparse set's Selberg masks (``shift_class_masks``),
``residue_counts`` the one residue-occupancy kernel, and ``cached`` the
package's one cache (tables, reduced-residue masks, the density ratio c, the
selected primes of each class part and the factor table of each P0, never one
of a per-instance subset such as P0*), bounded in bytes by the memory cap, a
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


def _power(base, exponent: float) -> float:
    """The one float-range rule, for every float power that can leave the range and every
    int-to-float conversion of a user-sized number: float(base) ** exponent, base > 0 (math.sqrt
    for exponent 0.5, logarithms for an int past the range); inf past the range, 0 below it."""
    try:
        value = float(base)
        return math.sqrt(value) if exponent == 0.5 else value**exponent
    except OverflowError:
        try:
            return math.exp(exponent * math.log(base))
        except OverflowError:
            return math.inf


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
        """Primes p with lo < p <= hi, ascending; CapacityError for an hi past
        the limit: ``primes_in`` of all primes."""
        return _selected(PrimeSubset(self), lo, hi)[0]

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
        table stops short of hi and the selector could pass a prime beyond it.

        The selector's Interval and MinValue parts narrow the range; a subset
        of ranges only is a slice of the table's prime list, any other a slice
        of its class part's cached primes (``_selected``)."""
        return _selected(self, lo, hi)[0]

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


def _split(selector: Selector) -> tuple[float, float, Selector]:
    """(gt, le, part): a prime p passes selector iff gt < p <= le and p passes
    part.  gt and le come from the Interval and MinValue parts (an empty range
    for a NaN bound, which selects nothing), part is the rest, ALL if none."""
    if isinstance(selector, Interval):
        lo, hi = selector.lo, selector.hi
        return (lo, hi, ALL) if lo == lo and hi == hi else (math.inf, -math.inf, ALL)
    if isinstance(selector, MinValue):
        t = selector.threshold
        if t != t:
            return math.inf, -math.inf, ALL
        return (math.ceil(t) - 1 if math.isfinite(t) else t), math.inf, ALL
    if not isinstance(selector, And):
        return -math.inf, math.inf, (ALL if isinstance(selector, AllPrimes) else selector)
    gt, le, rest = -math.inf, math.inf, []
    for lower, upper, part in map(_split, selector.parts):
        gt, le = max(gt, lower), min(le, upper)
        if part is not ALL:
            rest.append(part)
    return gt, le, (rest[0] if len(rest) == 1 else And(tuple(rest)) if rest else ALL)


class _Selected:
    """The primes of one class part up to a reach, ascending, and their
    math.log values, computed on first use: an entry of the one cache."""

    __slots__ = ("primes", "_logs")

    def __init__(self, primes: np.ndarray):
        self.primes = primes
        self.primes.flags.writeable = False
        self._logs = None

    @property
    def logs(self) -> np.ndarray:
        if self._logs is None:
            self._logs = np.fromiter(map(math.log, self.primes.tolist()), np.float64,
                                     self.primes.size)
            self._logs.flags.writeable = False
        return self._logs

    @property
    def nbytes(self) -> int:
        """The charge: 8 bytes a prime and 8 for its log, whether computed yet or not."""
        return 16 * self.primes.size


def _selected(ps: PrimeSubset, lo: float, hi: float | None, logs: bool = False):
    """(primes, their logs or None): the selected primes p with lo < p <= hi,
    under ``primes_in``'s coverage rule; a NaN or None hi reads as the table
    limit.

    The class part's primes up to reach, the next power of two of the range's
    end (at least 1024, at most the limit), are one cache entry per (table
    limit, class part, reach), charged 16 bytes a prime; a range is two
    searchsorted in it.  A subset of ranges only reads the table's own prime
    list, with no entry unless its logs are asked for."""
    table = ps.base
    limit = table.limit
    hi = limit if hi is None else hi
    end = min(hi, ps.selector.upper())
    if end > limit:
        raise CapacityError(f"range end {end} exceeds table limit {limit}", limit=limit)
    gt, le, part = _split(ps.selector)
    # integer bounds with as many primes below them keep searchsorted off floats
    lo = limit if lo != lo else math.floor(min(max(lo, gt, 0), limit))
    hi = math.floor(max(min(limit if hi != hi else hi, le, limit), 0))
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0) if logs else None
    if part is ALL and not logs:
        table._extend(hi)
        entry = None
        primes = table._primes
    else:
        reach = min(limit, max(1024, 1 << (hi - 1).bit_length()))

        def build():
            primes = table.primes_between(0, reach)
            # a view of the table's list for ALL, which keeps the list alive as long
            return _Selected(primes[:] if part is ALL else primes[part.mask(primes)])

        entry = cached(("primes", limit, part, reach), build)
        primes = entry.primes
    i, j = np.searchsorted(primes, (lo, hi), side="right")
    return primes[i:j], entry.logs[i:j] if logs else None


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

    Accumulated in ascending order in double precision, one term at a time
    (``np.add.accumulate``, the bits of a Python loop), from the primes and
    math.log values ``_selected`` slices out of the cache; the rounding error
    is far below the 1e-9 relative budget at table scales.
    """
    if not 0 <= lo < hi:  # a NaN bound fails too
        raise DomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    primes, logs = _selected(ps, lo, hi, logs=True)
    if not primes.size:
        return PrimeSums(0.0, 0.0, 0.0)
    return PrimeSums(*(float(np.add.accumulate(terms)[-1])
                       for terms in (logs, logs / primes, 1.0 / primes)))


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
    floor = _power(x, window_floor_exponent)
    y = _power(x, 0.5)
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
# the sift (exact: one factor table or multiples mask, or one sweep past their caps)

# values up to this bound are scanned through a multiples mask (1 byte each)
MASK_CAP = 5 * 10**7
# primes with at least this many multiples are marked by one strided slice
_SLICE_MULTIPLES = 64


def _mask_fits(top: int, itemsize: int = 1) -> bool:
    """Whether a mask or table over [0, top], itemsize bytes an entry, stays within its caps."""
    return top <= MASK_CAP and (top + 1) * itemsize <= MEMORY_CAP


def _mark(out: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """out, with out[n] = p for every multiple n >= 1 of each p in primes
    (ascending, none above top = out.size - 1): a bool out marks the n some
    prime divides, an int out holds the largest one.

    Primes up to max(sqrt(top), top / _SLICE_MULTIPLES) take one slice each, in
    ascending order, so a larger prime writes last; the rest, each the only
    prime above sqrt(top) of its multiples and with fewer than _SLICE_MULTIPLES
    of them, share index arrays of at most BLOCK_BYTES (or of one prime's
    multiples, if larger).
    """
    top = out.size - 1
    split = int(np.searchsorted(primes, max(math.isqrt(top), top // _SLICE_MULTIPLES), "right"))
    for p in primes[:split].tolist():
        out[p::p] = p
    step = max(1, BLOCK_BYTES // (16 * _SLICE_MULTIPLES))  # two int64 temporaries
    for lo in range(split, primes.size, step):
        block = primes[lo : lo + step]
        counts = top // block
        k = np.arange(1, int(counts.sum()) + 1, dtype=np.int64)
        k -= np.repeat(np.cumsum(counts) - counts, counts)
        block = np.repeat(block, counts)
        k *= block
        out[k] = block
    return out


def multiples(primes: np.ndarray, top: int) -> np.ndarray:
    """Bool mask over [0, top]: a prime in primes (ascending, none above top)
    divides n, so m[0] holds for any primes; one byte each, capped by the
    caller, marked by ``_mark``."""
    m = _mark(np.zeros(top + 1, dtype=bool), primes)
    m[0] = primes.size > 0
    return m


def _floor(selector: Selector) -> tuple[Selector, float]:
    """(part, t): a prime p passes selector iff it passes part and p >= t.
    For a floor selector And((part, MinValue(t'))), such as P0*'s, t is
    max(t', 1); any other selector is its own part, with t = 1."""
    parts = getattr(selector, "parts", ())
    if len(parts) == 2 and isinstance(parts[1], MinValue):
        return parts[0], max(parts[1].threshold, 1)
    return selector, 1


def _largest_factors(table: PrimeTable, selector: Selector, top: int) -> np.ndarray | None:
    """The int32 factor table L over [0, reach]: L[n] the largest prime of
    selector dividing n >= 1, 0 if none, and L[0] = 0; reach is the next
    power of two of top (at least 1024, at most the table limit).  One cache
    entry per (table limit, selector, reach); None when top passes the table
    or the table passes the mask's caps.

    For a selector fixed over many calls, such as P0, whose floor subsets
    (P0*, per instance) read the same table.
    """
    if top > table.limit:
        return None
    reach = min(table.limit, max(1024, 1 << (top - 1).bit_length()))
    if not _mask_fits(reach, 4):
        return None
    return cached(("factors", table.limit, selector, reach), lambda: _mark(
        np.zeros(reach + 1, dtype=np.int32), PrimeSubset(table, selector).primes_in(0, reach)))


def _factor_hits(values: np.ndarray, ps: PrimeSubset, top: int) -> np.ndarray | None:
    """Bool array over values (in [0, top]): a prime of ps divides v > 0,
    read as L[v] >= t from the factor table of ps's ``_floor`` part; None
    when ``_largest_factors`` gives no table."""
    part, t = _floor(ps.selector)
    factors = _largest_factors(ps.base, part, top)
    return None if factors is None else factors[values] >= t


def survivors(values: np.ndarray, classes: np.ndarray, ps: PrimeSubset) -> np.ndarray:
    """The values v != a (mod p) for every a in classes and p in ps (int64
    arrays, >= 0), in their given order: the one sift.

    For top the largest value or class, v = a is sifted out when ps has any
    prime (every prime divides 0), and v != a by:
    - for a floor subset such as P0* with top inside the table, one gather
      at |v - a| from the cached factor table of its part (``_largest_factors``),
      sifting out v when L[|v - a|] reaches the floor;
    - else, within the mask's caps, one gather from a ``multiples`` mask over
      the primes of ps up to min(top, table limit), built per call;
    - beyond them a sweep by ``shift_class_hits`` over the primes of ps up to
      top and the first above it (which sifts out exactly the v equal to a
      class), ascending and stopped once no value is left.
    """
    if values.size == 0:
        return values
    top = int(max(values.max(), classes.max()))
    bound = min(top, ps.base.limit)
    part, t = _floor(ps.selector)
    factors = None if part is ps.selector else _largest_factors(ps.base, part, top)
    if factors is not None or _mask_fits(top):
        # one row per class, so that numpy's inner loops run along the values
        diffs = np.abs(classes[:, None] - values)
        if factors is not None:
            hit = factors[diffs] >= t
        else:
            hit = multiples(ps.primes_in(0, bound), top)[diffs]
        # a prime up to top, as a rule, spares sieving the table to its limit
        if not diffs.all() and (ps.primes_in(0, bound).size or ps.primes().size):
            hit |= diffs == 0
        return values[~hit.any(axis=0)]
    plist = ps.primes()
    for p in plist[: np.searchsorted(plist, top, side="right") + 1].tolist():
        values = values[~shift_class_hits(values, classes, p)]
        if values.size == 0:
            break
    return values


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


def shift_class_masks(values: np.ndarray, shifts: np.ndarray) -> Callable[[int], np.ndarray]:
    """p -> shift_class_hits(values, shifts, p) for ascending int64 values: each
    shift's class marked by a strided slice of a bool table over [min, max], read
    at values - min; a span of at least p and 8 bytes a value takes the [0, p) one."""
    lo, span = int(values[0]), int(values[-1] - values[0])
    offsets = None if span + 1 == values.size else values - lo
    starts = (shifts - lo).tolist()

    def hits(p: int) -> np.ndarray:
        if span >= max(p, 8 * values.size):
            return shift_class_hits(values, shifts, p)
        table = np.zeros(span + 1, dtype=bool)
        for a in starts:
            table[a % p :: p] = True
        return table if offsets is None else table[offsets]

    return hits


# --------------------------------------------------------------------------
# residue occupancy


def residue_counts(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """nu(p) = #{v mod p : v in values} for ascending primes and ascending distinct
    int64 values (an ``IntegerSet`` array): each value its own class at a p above
    max - min, else one sorted row of residues per prime, counting the changes
    along it, in blocks of at most BLOCK_BYTES (or of one row, if larger)."""
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    primes = np.asarray(primes, dtype=np.int64).reshape(-1)
    out = np.full(primes.size, values.size, dtype=np.int64)
    if values.size == 0:
        return out
    near = int(primes.searchsorted(values[-1] - values[0], "right"))
    rows = max(1, BLOCK_BYTES // (8 * values.size))
    for lo in range(0, near, rows):
        hi = min(lo + rows, near)
        residues = values[None, :] % primes[lo:hi, None]
        residues.sort(axis=1)
        out[lo:hi] = 1 + (residues[:, 1:] != residues[:, :-1]).sum(axis=1)
    return out
