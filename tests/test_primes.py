import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsieve import sieves
from sumsieve import primes as primes_module
from sumsieve.arith import lattice
from sumsieve.errors import CapacityError, DegenerateInputError, DomainError
from sumsieve.primes import (
    And,
    Excluding,
    Interval,
    MinValue,
    PrimeSubset,
    PrimeTable,
    ResidueClass,
    all_primes,
    density_ratio_c,
    divisibility_hits,
    prime_table,
    primes_up_to,
    residue_counts,
    shift_class_hits,
    subset_sums,
    survivors,
    table_bytes_bound,
)
from sumsieve.sieves import OccupancyProfile, reduced_residues_mask, selberg_bound, sift_count
from sumsieve.smooth import SmoothQuery, psi, psi_coprime, smooth_tuple_count


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class TestPrimeTable:
    def test_small_tables(self):
        assert PrimeTable(10).primes.tolist() == [2, 3, 5, 7]
        assert PrimeTable(2).primes.tolist() == [2]
        assert PrimeTable(3).primes.tolist() == [2, 3]

    def test_pi_of_one_million_against_trial_division(self, table_1e6):
        # oracle: straight trial division over every integer up to 10^6
        count = 1 if 10**6 >= 2 else 0  # the prime 2
        for n in range(3, 10**6 + 1, 2):
            if trial_division_is_prime(n):
                count += 1
        assert table_1e6.primes.size == count == 78498

    def test_membership_agrees_with_trial_division(self, table_1e6):
        rng = random.Random(11)
        for n in rng.sample(range(1, 10**6), 500):
            assert table_1e6.is_prime(n) == trial_division_is_prime(n)

    def test_enumeration_strictly_increasing(self, table_1e6):
        ps = table_1e6.primes
        assert np.all(np.diff(ps) > 0)

    def test_growth_matches_one_full_build(self):
        # oracle: the whole odd mask in one pass, index i for n = 2i + 1
        limit = 10**7 + 50_000
        oracle = np.ones((limit + 1) // 2, dtype=bool)
        oracle[0] = False
        for p in range(3, math.isqrt(limit) + 1, 2):
            if oracle[p // 2]:
                oracle[p * p // 2 :: p] = False
        oracle_primes = np.concatenate(([2], 2 * np.flatnonzero(oracle) + 1))
        full = PrimeTable(limit)
        assert np.array_equal(full.primes, oracle_primes)
        assert np.array_equal(full._odd_mask, oracle)
        # each query kind grows the table; 2^22 + 1 is the first odd past the
        # first 2^21-odd segment
        grown = PrimeTable(limit)
        assert grown.is_prime(97) and not grown.is_prime(91)
        assert grown.is_prime(2**22 + 1) == trial_division_is_prime(2**22 + 1)
        lo, hi = 2**22 - 0.5, 2**22 + 2**21 + 0.5
        assert np.array_equal(grown.primes_between(lo, hi),
                              oracle_primes[(oracle_primes > lo) & (oracle_primes <= hi)])
        assert grown.primes.size == oracle_primes.size
        assert np.array_equal(grown._odd_mask, oracle)
        assert np.array_equal(grown._primes, oracle_primes)

    def test_a_query_sieves_only_as_far_as_it_reaches(self):
        table = PrimeTable(10**7)
        assert table.primes_between(1, 10**6).size == 78498
        assert 2 * table._odd_mask.size <= 2 * 10**6
        # one step past the reach doubles it
        assert table.is_prime(10**6 + 3)
        assert 2 * table._odd_mask.size == 2 * 10**6
        assert table._primes.size == 148933

    def test_limit_validation(self, monkeypatch):
        with pytest.raises(DomainError):
            PrimeTable(1)
        monkeypatch.setattr(primes_module, "LIMIT_CAP", 10**6)
        with pytest.raises(CapacityError):
            PrimeTable(10**7)

    def test_build_peaks_at_the_table_size(self):
        # the prime list is built in place: a copy per step (bit positions,
        # int64 cast, doubling, prepending 2) peaked at 1.52x the table
        tracemalloc.start()
        try:
            table = PrimeTable(10**7)
            count = table.primes.size  # sieves the whole table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        built = table._odd_mask.nbytes + table._primes.nbytes
        assert table._odd_mask.size == (10**7 + 1) // 2 and table.nbytes == built
        assert peak <= 1.01 * built
        # the odd mask still marks exactly the odd primes
        assert count == 664579 and np.count_nonzero(table._odd_mask) + 1 == count

    def test_range_query_beyond_limit(self, table_1e4):
        with pytest.raises(CapacityError):
            table_1e4.primes_between(1, 10**5)
        # bounds inside the limit select lo < p <= hi, fractional and
        # non-finite ones included
        everything = table_1e4.primes.tolist()
        for lo, hi in [(1, 30), (2, 3), (2.5, 29.9), (-7.5, 11), (96.99, 97.0),
                       (10**4, 10**4), (1e300, 10**4), (-math.inf, 20),
                       (math.inf, 20), (math.nan, 20), (5, math.nan), (0, -1e300)]:
            got = table_1e4.primes_between(lo, hi).tolist()
            if math.isnan(hi):
                hi = math.inf  # nan sorts after every prime
            assert got == [p for p in everything if lo < p <= hi], (lo, hi)


class TestSelectors:
    def test_residue_class(self, table_1e4):
        ps = PrimeSubset(table_1e4, ResidueClass(1, 4))
        got = ps.primes_in(1, 30).tolist()
        assert got == [5, 13, 17, 29]

    def test_every_selected_prime_satisfies_selector(self, table_1e4):
        rng = random.Random(3)
        selectors = [
            Interval(10, 500),
            ResidueClass(3, 4),
            Excluding(frozenset({2, 3, 5, 7})),
            MinValue(97),
            And((Interval(5, 2000), ResidueClass(1, 3))),
        ]
        for sel in selectors:
            ps = PrimeSubset(table_1e4, sel)
            arr = ps.primes()
            for p in arr.tolist():
                assert table_1e4.is_prime(p)
                assert sel.contains(p)
            # spot-check completeness against a direct scan
            direct = [
                p
                for p in table_1e4.primes.tolist()
                if sel.contains(p)
            ]
            assert arr.tolist() == direct

    def test_range_past_the_table(self, table_1e4):
        # a subset bounded inside the table needs no table beyond its bound
        bounded = [Interval(10, 500), And((Interval(5, 2000), MinValue(97))),
                   And((ResidueClass(3, 4), Interval(0, 10**4)))]
        for sel in bounded:
            ps = PrimeSubset(table_1e4, sel)
            assert ps.primes_in(1, 10**9).tolist() == ps.primes().tolist()
        # one that could pass a prime past the table refuses the range
        for sel in (ResidueClass(3, 4), MinValue(97), Excluding(frozenset({2})),
                    And((Interval(5, 10**4 + 1), MinValue(97))), And(())):
            with pytest.raises(CapacityError):
                PrimeSubset(table_1e4, sel).primes_in(1, 10**9)

    def test_star_subset_construction(self, table_1e4):
        base = PrimeSubset(table_1e4, ResidueClass(1, 4))
        k_cubed = 47.0
        star = PrimeSubset(table_1e4, And((base.selector, MinValue(k_cubed))))
        star_primes = star.primes()
        base_set = set(base.primes().tolist())
        assert set(star_primes.tolist()) <= base_set
        if star_primes.size:
            assert star_primes[0] >= k_cubed


class TestSubsetSums:
    def test_theta_over_first_window(self, table_1e4):
        sums = subset_sums(all_primes(table_1e4), 1, 10)
        assert sums.theta == pytest.approx(math.log(210), abs=1e-12)

    def test_empty_subset(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        sums = subset_sums(ps, 1, 1000)
        assert (sums.theta, sums.mertens_log, sums.mertens_recip) == (0.0, 0.0, 0.0)

    def test_residue_class_window(self, table_1e4):
        ps = PrimeSubset(table_1e4, ResidueClass(1, 4))
        sums = subset_sums(ps, 1, 30)
        expected = math.log(5) + math.log(13) + math.log(17) + math.log(29)
        assert sums.theta == pytest.approx(expected, rel=1e-14)

    def test_subset_never_exceeds_full(self, table_1e6):
        rng = random.Random(5)
        full = all_primes(table_1e6)
        for _ in range(50):
            lo = rng.uniform(1, 10**4)
            hi = lo + rng.uniform(10, 10**4)
            ps = PrimeSubset(table_1e6, ResidueClass(rng.choice([1, 3]), 4))
            sub = subset_sums(ps, lo, hi)
            tot = subset_sums(full, lo, hi)
            assert sub.theta <= tot.theta + 1e-12
            assert sub.mertens_log <= tot.mertens_log + 1e-12
            assert sub.mertens_recip <= tot.mertens_recip + 1e-12

    def test_split_and_recombine(self, table_1e6):
        rng = random.Random(6)
        ps = all_primes(table_1e6)
        for _ in range(50):
            lo = rng.uniform(1, 10**5)
            hi = lo + rng.uniform(100, 10**5)
            mid = rng.uniform(lo + 1, hi - 1)
            whole = subset_sums(ps, lo, hi)
            parts = subset_sums(ps, lo, mid) + subset_sums(ps, mid, hi)
            assert whole.theta == pytest.approx(parts.theta, rel=1e-9)
            assert whole.mertens_log == pytest.approx(parts.mertens_log, rel=1e-9)
            assert whole.mertens_recip == pytest.approx(parts.mertens_recip, rel=1e-9)

    def test_bad_range(self, table_1e4):
        with pytest.raises(DomainError):
            subset_sums(all_primes(table_1e4), 10, 10)
        with pytest.raises(CapacityError):
            subset_sums(all_primes(table_1e4), 1, 10**6)


class TestDensityRatio:
    def test_all_primes_give_one(self, table_1e6):
        assert density_ratio_c(all_primes(table_1e6), 10**4) == 1.0

    def test_empty_subset_is_degenerate(self, table_1e6):
        ps = PrimeSubset(table_1e6, Interval(0, 1))
        with pytest.raises(DegenerateInputError):
            density_ratio_c(ps, 10**4)

    def test_three_mod_four_near_half(self, table_1e6):
        # oracle: the same window sums, assembled by hand
        ps = PrimeSubset(table_1e6, ResidueClass(3, 4))
        c = density_ratio_c(ps, 10**8)
        x = 10**8
        y = math.sqrt(x)
        expected = []
        while y >= x**0.1:
            full = subset_sums(all_primes(table_1e6), y / 2, y)
            part = subset_sums(ps, y / 2, y)
            if full.theta > 0:
                expected.append(part.theta / full.theta)
            y /= 2
        assert c == min(expected)
        assert abs(c - 0.5) <= 0.1

    def test_requires_x_at_least_100(self, table_1e6):
        with pytest.raises(DomainError):
            density_ratio_c(all_primes(table_1e6), 99)

    def test_memo(self, table_1e4, monkeypatch):
        cache = primes_module._ByteCache()
        monkeypatch.setattr(primes_module, "_CACHE", cache)
        selectors = [
            ResidueClass(3, 4),
            Interval(20, 5000),
            Excluding(frozenset({101, 103, 107})),
            And((ResidueClass(1, 3), MinValue(40))),
        ]
        keys = [(10**6, 0.3), (10**6, 0.1), (10**8, 0.1)]
        other_table = PrimeTable(10**4)
        for sel in selectors:
            for x, exponent in keys:
                cold = primes_module._density_ratio_c(PrimeSubset(table_1e4, sel), x, exponent)
                # the first call fills the memo; an equal selector built anew
                # and a second table of the same limit are served from it
                for table, selector in ((table_1e4, sel), (other_table, type(sel)(**vars(sel)))):
                    memo = density_ratio_c(PrimeSubset(table, selector), x, window_floor_exponent=exponent)
                    assert memo == cold and repr(memo) == repr(cold)
        assert len(cache) == len(selectors) * len(keys)
        # errors are raised on every call and leave no entry
        cache.clear()
        cache.nbytes = 0
        for ps, x, error in (
            (all_primes(table_1e4), 99, DomainError),
            (all_primes(table_1e4), 10**8 + 2 * 10**4 + 1, CapacityError),  # sqrt(x) > 10^4
            (PrimeSubset(table_1e4, Interval(5000, 6000)), 10**4, DegenerateInputError),
        ):
            for _ in range(2):
                with pytest.raises(error):
                    density_ratio_c(ps, x)
        assert len(cache) == 0 and cache.nbytes == 0


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n > 1, ascending, by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def divisibility_hits_scalar(values, ps, max_pairs=20):
    """Reference: a table short of the largest value is refused first, unless
    the selector passes no prime beyond the table; then per value > 1, its
    prime factors upward by trial division, and the first one in ps is a hit.
    The first max_pairs hits, and the number of hits."""
    limit = ps.base.limit
    end = min(max(values), ps.selector.upper())
    if end > limit:
        raise CapacityError(f"range end {end} exceeds table limit {limit}", limit=limit)
    hits = []
    for v in values:
        for p in prime_factors(v) if v > 1 else []:
            if ps.selector.contains(p):
                hits.append((v, p))
                break
    return hits[:max_pairs], len(hits)


def test_table_limit_and_mask_caps_stay_in_primes():
    """Only primes reads a table's limit or the multiples mask's caps: every
    other module goes through primes_in (the coverage rule) and survivors
    (the mask-or-sweep choice)."""
    names = (".base.limit", "MASK_CAP", "_mask_fits")
    package = Path(__file__).resolve().parents[1] / "src" / "sumsieve"
    found = {(f.name, n) for f in package.glob("*.py") for n in names if n in f.read_text()}
    assert found == {("primes.py", n) for n in names}


class TestDivisibility:
    def test_survivors(self, table_1e4, monkeypatch):
        ps = PrimeSubset(table_1e4, ResidueClass(3, 4))
        values = np.arange(0, 101, dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        # 0 is sifted out by every prime; 1 by none
        expected = [n for n in range(1, 101) if not any(p % 4 == 3 for p in prime_factors(n))]
        none = PrimeSubset(table_1e4, Interval(0, 1))
        for cap in (primes_module.MASK_CAP, 0):  # the gather, then the sweep
            monkeypatch.setattr(primes_module, "MASK_CAP", cap)
            got = survivors(values, zero, ps)
            assert got.dtype == np.int64 and got.tolist() == expected
            assert survivors(values, zero, none).tolist() == values.tolist()
        monkeypatch.undo()
        # the mask spans [0, top] for the largest value or class top, within
        # the memory cap; one byte past it the same survivors come from the sweep
        built = []
        real = primes_module.multiples
        monkeypatch.setattr(primes_module, "multiples",
                            lambda primes, top: built.append(top) or real(primes, top))
        monkeypatch.setattr(primes_module, "MEMORY_CAP", 10**3)
        assert survivors(np.array([999, 21]), zero, ps).tolist() == []
        assert built == [999]
        assert survivors(np.array([21, 1000]), zero, ps).tolist() == [1000]
        assert survivors(np.array([999, 21]), np.array([1000]), ps).tolist() == [999]
        assert built == [999]

    def test_hits_found(self, table_1e4, monkeypatch):
        ps = PrimeSubset(table_1e4, ResidueClass(3, 4))
        hits = divisibility_hits([10, 21, 13], ps)
        assert hits == ([(21, 3)], 1)
        # 0 and 1 are no hits, and each value gets its smallest prime of ps,
        # on the mask and on the per-prime sweep alike
        mixed = [0, 1, 21, 10, 77, 3]
        assert divisibility_hits(mixed, ps) == ([(21, 3), (77, 7), (3, 3)], 3)
        with monkeypatch.context() as mp:
            mp.setattr(primes_module, "MEMORY_CAP", 0)
            assert divisibility_hits(mixed, ps) == ([(21, 3), (77, 7), (3, 3)], 3)
        rng = random.Random(4)
        selectors = [ResidueClass(3, 4), Interval(10, 100), MinValue(50),
                     Excluding(frozenset({2, 3})), Interval(9000, 10**4)]
        cases = [
            [0, 1, 2, 4, 8, 1024, 3**7, 7**4, 97**2, 9973],  # 0, 1, prime powers
            rng.sample(range(0, 10**4), 300),
            rng.sample(range(0, 10**4), 30) * 2,  # repeated values
        ]
        for values in cases:
            for sel in selectors:
                ps = PrimeSubset(table_1e4, sel)
                for max_pairs in (1, 3, 20, 10**4):  # truncation keeps value order
                    monkeypatch.setattr(primes_module, "HIT_CAP", max_pairs)
                    got = divisibility_hits(values, ps)
                    assert got == divisibility_hits_scalar(values, ps, max_pairs)
                    assert len(got[0]) <= max_pairs
                    assert got == divisibility_hits(np.asarray(values), ps)
                    with monkeypatch.context() as mp:
                        mp.setattr(primes_module, "MEMORY_CAP", 0)  # the per-prime sweep
                        assert divisibility_hits(values, ps) == got

    def test_clean_set(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(10, 100))
        assert divisibility_hits([2, 3, 4, 8, 9], ps) == ([], 0)
        # a table short of the largest value is refused by the one coverage
        # rule, whatever the value order, unless the selector stops inside it
        table = PrimeTable(100)
        small = PrimeSubset(table, ResidueClass(3, 4))
        for values, max_pairs in (([4, 101, 7], 20), ([7, 101], 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(primes_module, "HIT_CAP", max_pairs)
                with pytest.raises(CapacityError, match="range end 101 exceeds table limit 100"):
                    divisibility_hits(values, small)
                mp.setattr(primes_module, "MEMORY_CAP", 0)  # the per-prime sweep
                with pytest.raises(CapacityError, match="range end 101 exceeds table limit 100"):
                    divisibility_hits(values, small)
        bounded = PrimeSubset(table, Interval(3, 50))
        for cap in (primes_module.MEMORY_CAP, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(primes_module, "MEMORY_CAP", cap)
                assert divisibility_hits([4, 101, 1009, 7, 2048, 5 * 1009], bounded) == (
                    [(7, 7), (5 * 1009, 5)], 2)


_TABLES = {limit: PrimeTable(limit) for limit in (60, 500)}
_SELECTORS = st.one_of(
    st.builds(Interval, st.integers(0, 600), st.integers(0, 600)),
    st.integers(1, 6).flatmap(lambda m: st.builds(ResidueClass, st.integers(0, m - 1), st.just(m))),
    st.builds(Excluding, st.frozensets(st.integers(2, 60), max_size=6)),
    st.builds(MinValue, st.integers(0, 700)),  # above every value of a small top
)


def _oracle_primes(ps, bound):
    """The primes of ps up to bound, by trial division and the selector."""
    return [p for p in range(2, bound + 1) if trial_division_is_prime(p) and ps.selector.contains(p)]


@st.composite
def _sift_cases(draw):
    """(values, classes) in [0, 1200], some classes equal to values."""
    values = draw(st.lists(st.integers(0, 1200), max_size=30))
    classes = draw(st.lists(st.one_of(st.sampled_from(values or [0]), st.integers(0, 1200)),
                            min_size=1, max_size=4))
    return values, classes


class TestMultiplesMaskProperty:
    """survivors, sift_count and divisibility_hits against trial division."""

    @settings(max_examples=150, deadline=None)
    @given(
        limit=st.sampled_from(sorted(_TABLES)),
        selectors=st.lists(_SELECTORS, min_size=1, max_size=2),
        case=_sift_cases(),
        block=st.sampled_from([24, 240, 1 << 24]),
    )
    # no prime <= top, but some above it: the classes sift out equal values
    @example(limit=500, selectors=[MinValue(400)], case=([0, 7, 300, 77, 7], [7, 300]), block=24)
    # no prime at all: nothing is sifted out
    @example(limit=500, selectors=[MinValue(700)], case=([0, 7, 300], [7, 0]), block=24)
    # top beyond the table limit
    @example(limit=60, selectors=[Interval(59, 600)], case=([1000, 59, 118, 3], [0, 1000]),
             block=24)
    def test_mask(self, limit, selectors, case, block):
        ps = PrimeSubset(_TABLES[limit], selectors[0] if len(selectors) == 1 else And(tuple(selectors)))
        values, classes = case
        plist = _oracle_primes(ps, limit)
        expected = [v for v in values if not any((v - a) % p == 0 for a in classes for p in plist)]
        v, a = np.array(values, dtype=np.int64), np.array(classes, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "BLOCK_BYTES", block)  # many index blocks
            assert survivors(v, a, ps).tolist() == expected
            mp.setattr(primes_module, "MASK_CAP", 0)  # every top takes the sweep
            assert survivors(v, a, ps).tolist() == expected

    @settings(max_examples=150, deadline=None)
    @given(
        limit=st.sampled_from(sorted(_TABLES)),
        selectors=st.lists(_SELECTORS, min_size=1, max_size=2),
        data=st.data(),
    )
    def test_sift_count(self, limit, selectors, data):
        ps = PrimeSubset(_TABLES[limit], selectors[0] if len(selectors) == 1 else And(tuple(selectors)))
        s = data.draw(st.lists(st.integers(0, 1500), min_size=1, max_size=25, unique=True))
        # some shifts equal elements of s
        shifts = data.draw(st.lists(st.one_of(st.sampled_from(s), st.integers(0, 1500)),
                                    min_size=1, max_size=4, unique=True))
        plist = _oracle_primes(ps, limit)
        expected = sum(
            1 for v in s if not any(abs(v - a) % p == 0 for a in shifts for p in plist)
        )
        assert sift_count(s, shifts, ps) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "MEMORY_CAP", 0)  # the per-prime sweep
            assert sift_count(s, shifts, ps) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        limit=st.sampled_from(sorted(_TABLES)),
        selectors=st.lists(_SELECTORS, min_size=1, max_size=2),
        values=st.lists(st.integers(0, 2000), min_size=1, max_size=30),
        max_pairs=st.sampled_from([1, 3, 20]),
    )
    @example(limit=60, selectors=[ResidueClass(3, 4)], values=[4, 7, 67, 3], max_pairs=1)
    @example(limit=60, selectors=[ResidueClass(3, 4)], values=[4, 7, 67, 3], max_pairs=3)
    def test_divisibility_hits(self, limit, selectors, values, max_pairs):
        ps = PrimeSubset(_TABLES[limit], selectors[0] if len(selectors) == 1 else And(tuple(selectors)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "HIT_CAP", max_pairs)
            try:
                expected = divisibility_hits_scalar(values, ps, max_pairs)
            except CapacityError as exc:
                with pytest.raises(CapacityError, match=str(exc)):
                    divisibility_hits(values, ps)
            else:
                assert divisibility_hits(values, ps) == expected
                mp.setattr(primes_module, "MEMORY_CAP", 0)  # the per-prime sweep
                assert divisibility_hits(values, ps) == expected


def _isin_hits(values, shifts, p):
    """Reference for shift_class_hits: the residues' membership by np.isin."""
    return np.isin(values % p, shifts % p)


_SIFT_VALUES = st.one_of(st.integers(0, 3000), st.integers(10**12, 10**12 + 3000))


class TestShiftClassProperty:
    """shift_class_hits, the sift_count sweep and Selberg's hit masks against
    trial division and the np.isin reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 31, 397]),
        data=st.data(),
    )
    @example(p=2, data=None)
    def test_helper(self, p, data):
        if data is None:  # p = 2, shifts >= p, a shift equal to a value
            values, shifts = [0, 1, 2, 3, 10**12 + 1], [2, 3, 10**12 + 1]
        else:
            values = data.draw(st.lists(_SIFT_VALUES, max_size=40))
            shifts = data.draw(st.lists(st.one_of(st.sampled_from(values or [0]), _SIFT_VALUES),
                                        min_size=1, max_size=60, unique=True))
        v, a = np.array(values, dtype=np.int64), np.array(shifts, dtype=np.int64)
        got = shift_class_hits(v, a, p)
        assert got.dtype == np.bool_
        assert got.tolist() == [any((x - y) % p == 0 for y in shifts) for x in values]
        assert got.tolist() == _isin_hits(v, a, p).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        limit=st.sampled_from(sorted(_TABLES)),
        selectors=st.lists(_SELECTORS, min_size=1, max_size=2),
        data=st.data(),
    )
    def test_sift_count_sweep(self, limit, selectors, data):
        ps = PrimeSubset(_TABLES[limit], selectors[0] if len(selectors) == 1 else And(tuple(selectors)))
        s = data.draw(st.lists(_SIFT_VALUES, min_size=1, max_size=25, unique=True))
        # values near 10^12 lie beyond MASK_CAP: the per-prime sweep
        shifts = data.draw(st.lists(st.one_of(st.sampled_from(s), _SIFT_VALUES),
                                    min_size=1, max_size=60, unique=True))
        plist = _oracle_primes(ps, limit)
        expected = sum(
            1 for v in s if not any(abs(v - a) % p == 0 for a in shifts for p in plist)
        )
        assert sift_count(s, shifts, ps) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "MASK_CAP", 0)  # every top takes the sweep
            assert sift_count(s, shifts, ps) == expected
            mp.setattr(primes_module, "shift_class_hits", _isin_hits)
            assert sift_count(s, shifts, ps) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.integers(0, 40),
        width=st.integers(1, 60),
        q_limit=st.integers(1, 10),
        data=st.data(),
    )
    @example(lo=0, width=10, q_limit=5, data=None)  # p = 2, shifts >= p and in C
    def test_selberg_hit_masks(self, lo, width, q_limit, data):
        ps = PrimeSubset(_TABLES[500], Interval(lo, lo + width))
        if data is None:
            c_set, shifts = [1, 2, 3, 4, 5, 6, 12, 13], [4, 5, 13, 40]
        else:
            c_set = data.draw(st.lists(st.integers(0, 3000), min_size=1, max_size=30, unique=True))
            shifts = data.draw(st.lists(st.one_of(st.sampled_from(c_set), st.integers(0, 3000)),
                                        min_size=1, max_size=60, unique=True))
        plist = ps.primes().tolist()
        omega = OccupancyProfile({p: (p - 1) / 2 for p in plist})
        seen = []

        def checked(values, shift_arr, p):
            got = shift_class_hits(values, shift_arr, p)
            assert got.tolist() == [any((int(v) - a) % p == 0 for a in shifts) for v in values]
            assert got.tolist() == _isin_hits(values, shift_arr, p).tolist()
            seen.append(p)
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieves, "shift_class_hits", checked)
            rep = selberg_bound(c_set, ps, shifts, omega, q_limit)
        assert seen[: len([p for p in plist if p <= q_limit**2])] == [p for p in plist if p <= q_limit**2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieves, "shift_class_hits", _isin_hits)
            reference = selberg_bound(c_set, ps, shifts, omega, q_limit)
        assert repr(rep.remainder) == repr(reference.remainder)
        # the remainder from counts by trial division, in the lattice's order
        remainder = 0.0
        for d, r in lattice(plist, q_limit**2, 0, lambda r, p: r + 1):
            if d > 1:
                count = sum(1 for c in c_set if math.prod(c - a for a in shifts) % d == 0)
                density = math.prod(omega.get(p) / p for p in plist if d % p == 0)
                remainder += 3**r * abs(count - len(c_set) * density)
        assert rep.remainder == pytest.approx(remainder, rel=1e-12, abs=1e-9)


_SMALL_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]


class TestResidueCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(0, 50), st.integers(0, 10**12)), max_size=30),
        primes=st.lists(st.sampled_from(_SMALL_PRIMES), max_size=25),
        rows=st.integers(1, 4),
    )
    @example(values=[0], primes=[2, 3, 5], rows=1)
    @example(values=[0, 7, 14], primes=[7, 101, 397], rows=2)  # primes above every value
    @example(values=[123456789], primes=[2, 389], rows=1)
    @example(values=[1, 2, 3], primes=[], rows=1)
    @example(values=[], primes=[2, 3], rows=1)
    def test_matches_python_sets(self, values, primes, rows):
        # rows primes per block, so most prime lists cross a block boundary
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "BLOCK_BYTES", 8 * max(len(values), 1) * rows)
            got = residue_counts(np.array(values, dtype=np.int64), np.array(primes, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [len({v % p for v in values}) for p in primes]


class TestCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        """An empty cache of the package under a 20,000-byte memory cap."""
        cache = primes_module._ByteCache()
        monkeypatch.setattr(primes_module, "_CACHE", cache)
        monkeypatch.setattr(primes_module, "MEMORY_CAP", 20_000)
        return cache

    def test_bytes_stay_under_the_cap(self, cache):
        cap = primes_module.MEMORY_CAP
        table = prime_table(2000)
        # charged its full-limit bound on entry, which the sieved table stays within
        charge = primes_module.ENTRY_BYTES + table_bytes_bound(2000)
        assert cache[("table", 2000)] == (table, charge)
        assert table.primes.size == 303 and table.nbytes <= table_bytes_bound(2000)
        assert prime_table(2000) is table  # kept by its exact limit
        assert cache[("table", 2000)] == (table, charge)
        requests = [
            lambda: primes_up_to(2000),
            lambda: reduced_residues_mask(3000),
            lambda: prime_table(10**4),
            lambda: primes_up_to(50),
            lambda: reduced_residues_mask(3000),
            lambda: primes_up_to(100),
            lambda: reduced_residues_mask(4999),
            lambda: primes_up_to(700),
            lambda: prime_table(2000),
            lambda: primes_up_to(2600),
        ]
        for request in requests:
            request()
            assert cache.nbytes == sum(entry[1] for entry in cache.values())
            assert cache.nbytes <= cap
        # scalar density memo entries count their fixed overhead, and push
        # the tables out
        ps = PrimeSubset(PrimeTable(2600), ResidueClass(1, 4))
        for x in range(10**6, 10**6 + 60):
            c = density_ratio_c(ps, x)
            assert cache[("density_c", ps.base.limit, ps.selector, x, 0.1)] == (
                c, primes_module.ENTRY_BYTES)
            assert cache.nbytes == sum(entry[1] for entry in cache.values())
            assert cache.nbytes <= cap
        assert len(cache) == cap // primes_module.ENTRY_BYTES
        # larger than the cap on its own: returned, not kept
        mask = reduced_residues_mask(30000)
        assert mask.nbytes > cap
        assert ("mask", 30000) not in cache
        assert reduced_residues_mask(30000) is not mask
        assert cache.nbytes <= cap

    def test_nearby_limits_share_a_power_of_two_table(self, cache):
        primes_up_to(1500)
        primes_up_to(1025)
        primes_up_to(2048)
        assert list(cache) == [("table", 2048)]
        primes_up_to(-3)
        primes_up_to(100.5)
        assert list(cache) == [("table", 2048), ("table", 1024)]

    def test_primes_up_to_matches_trial_division(self, monkeypatch):
        monkeypatch.setattr(primes_module, "_CACHE", primes_module._ByteCache())
        for n in [2**k + d for k in (10, 11, 12, 16) for d in (-1, 0, 1)] + [-1, 0, 1, 2, 3, 30.5]:
            expected = [p for p in range(math.floor(n) + 1) if trial_division_is_prime(p)]
            assert primes_up_to(n).tolist() == expected, n

    def test_table_past_the_cap_is_refused_before_it_is_built(self, cache, monkeypatch):
        def never(limit):
            raise AssertionError(f"a table to {limit} was built")

        monkeypatch.setattr(primes_module, "PrimeTable", never)
        for request in (lambda: prime_table(16384), lambda: primes_up_to(10**4),
                        lambda: prime_table(10**11)):
            with pytest.raises(CapacityError):
                request()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_tuple_scan_past_the_cap_is_refused_before_it_is_built(self, cache, monkeypatch):
        def never(*args):
            raise AssertionError(f"a table or a mask was built: {args}")

        monkeypatch.setattr(primes_module, "PrimeTable", never)
        monkeypatch.setattr(primes_module, "multiples", never)
        monkeypatch.setattr(primes_module, "MEMORY_CAP", 10**4)
        # the scan spans [0, x + the largest shift]: 10^4 + 1 bytes
        with pytest.raises(CapacityError, match="tuple scan"):
            smooth_tuple_count(100, 10, [0, 10**4 - 100])
        assert len(cache) == 0 and cache.nbytes == 0

    def test_tuple_scan_counts_its_sifted_flags(self, cache, monkeypatch):
        def never(*args):
            raise AssertionError(f"a table or a mask was built: {args}")

        monkeypatch.setattr(primes_module, "PrimeTable", never)
        monkeypatch.setattr(primes_module, "multiples", never)
        monkeypatch.setattr(primes_module, "MEMORY_CAP", 10**4)
        # the mask's 8001 bytes fit, but not with the 3000 bytes of sifted flags
        with pytest.raises(CapacityError, match="tuple scan"):
            smooth_tuple_count(3000, 10, [0, 5000])
        assert len(cache) == 0 and cache.nbytes == 0

    @pytest.mark.parametrize("limit", [2, 3, 10, 1000, 10**4, 10**5])
    def test_refused_whenever_the_table_passes_the_cap(self, monkeypatch, limit):
        # the prime-count bound never undercounts: one byte less than the
        # table holds is refused
        monkeypatch.setattr(primes_module, "_CACHE", primes_module._ByteCache())
        table = PrimeTable(limit)
        table.primes.size  # sieves the whole table
        monkeypatch.setattr(primes_module, "MEMORY_CAP", table.nbytes - 1)
        with pytest.raises(CapacityError):
            prime_table(limit)

    def test_smooth_counts_with_y_far_above_x(self, cache):
        # only the primes up to x (or x + the largest shift) are built
        for y in (10**8, 10**12):
            assert psi(SmoothQuery(100, y, 3, 1)) == 34
            assert psi_coprime(SmoothQuery(100, y), 6) == 33
            assert smooth_tuple_count(100, y, [0, 2]).count == 100
            assert smooth_tuple_count(1000, y, [0, 1]).count == 1000
        assert list(cache) == [("table", 1024)]
