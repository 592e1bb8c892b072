import math
import random
import tracemalloc

import numpy as np
import pytest

from sumsieve import semigroup
from sumsieve.errors import CapacityError, DomainError
from sumsieve.primes import Excluding, Interval, PrimeSubset, ResidueClass, all_primes
from sumsieve.semigroup import (
    enumerate_q,
    estimate_tau,
    max_gap,
    verify_hypotheses_wirsing,
    wirsing_estimate,
)


def filter_by_marking(table, ps, x: int) -> np.ndarray:
    """Oracle: mark multiples of every prime outside the subset."""
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for p in table.primes_between(1, x).tolist():
        if not ps.contains(p):
            mask[p::p] = False
    return np.flatnonzero(mask)


class TestEnumerateQ:
    def test_empty_support(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        assert enumerate_q(ps, 100).elements == (1,)

    def test_powers_of_two(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 2))
        got = enumerate_q(ps, 1000).elements
        assert got == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

    def test_one_mod_four_up_to_100(self, table_1e4):
        ps = PrimeSubset(table_1e4, ResidueClass(1, 4))
        got = enumerate_q(ps, 100)
        assert len(got) == 15
        assert got.elements == (1, 5, 13, 17, 25, 29, 37, 41, 53, 61, 65, 73, 85, 89, 97)

    def test_matches_marking_filter(self, table_1e6):
        rng = random.Random(1)
        for _ in range(10):
            kind = rng.randrange(3)
            if kind == 0:
                ps = PrimeSubset(table_1e6, ResidueClass(rng.choice([1, 3]), 4))
            elif kind == 1:
                lo = rng.randrange(2, 50)
                ps = PrimeSubset(table_1e6, Interval(lo, lo + rng.randrange(10, 400)))
            else:
                banned = frozenset(rng.sample(range(2, 60), rng.randrange(1, 12)))
                ps = PrimeSubset(table_1e6, Excluding(banned))
            x = rng.randrange(100, 30000)
            got = enumerate_q(ps, x).array()
            assert np.array_equal(got, filter_by_marking(table_1e6, ps, x))

    def test_nesting(self, table_1e4):
        inner = PrimeSubset(table_1e4, Interval(2, 30))
        outer = PrimeSubset(table_1e4, Interval(2, 100))
        q_in = enumerate_q(inner, 5000)
        q_out = enumerate_q(outer, 5000)
        assert q_in.issubset(q_out)

    def test_count_monotone_in_x(self, table_1e4):
        ps = PrimeSubset(table_1e4, ResidueClass(1, 4))
        counts = [len(enumerate_q(ps, x)) for x in (100, 1000, 5000)]
        assert counts == sorted(counts)

    def test_capacity(self, table_1e4):
        with pytest.raises(CapacityError):
            enumerate_q(all_primes(table_1e4), 10**9 + 1)

    def test_memory_cap_bounds_the_element_count(self, table_1e4, monkeypatch):
        # every n <= 1000 is 10^4-smooth: 1000 int64 elements, 8000 bytes
        ps = all_primes(table_1e4)
        monkeypatch.setattr(semigroup, "VALUE_CAP", 1000)
        assert np.array_equal(enumerate_q(ps, 1000).array(), np.arange(1, 1001))
        monkeypatch.setattr(semigroup, "VALUE_CAP", 999)
        with pytest.raises(CapacityError, match="more than 999 elements"):
            enumerate_q(ps, 1000)

    def test_refused_before_the_whole_set_is_built(self, table_1e4, monkeypatch):
        # Q(T) up to 10^6 has 628,743 elements here, about 10.7 MB at its peak
        monkeypatch.setattr(semigroup, "VALUE_CAP", 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="past the memory cap"):
                enumerate_q(PrimeSubset(table_1e4, Interval(0, 10**4)), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 10**5

    def test_max_gap_diagnostic(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 2))
        assert max_gap(enumerate_q(ps, 1000)) == 256  # 512 - 256


class TestEstimateTau:
    def test_all_primes_near_one(self, table_1e7):
        stats = estimate_tau(all_primes(table_1e7), 10**6)
        assert abs(stats.tau_hat - 1.0) <= 0.05

    def test_empty_subset_gives_zero(self, table_1e7):
        ps = PrimeSubset(table_1e7, Interval(0, 1))
        assert estimate_tau(ps, 10**4).tau_hat == 0.0

    def test_one_mod_four_near_half(self, table_1e7):
        stats = estimate_tau(PrimeSubset(table_1e7, ResidueClass(1, 4)), 10**7)
        assert abs(stats.tau_hat - 0.5) <= 0.05
        assert stats.residual_rms < 0.1

    def test_requires_ten_thousand(self, table_1e4):
        with pytest.raises(DomainError):
            estimate_tau(all_primes(table_1e4), 10**3)


class TestWirsingEstimate:
    def test_near_one_sanity_band(self, table_1e6):
        est = wirsing_estimate(all_primes(table_1e6), 10**6, 0.999)
        assert 10**6 / 10 <= est <= 10**6 * 10

    def test_one_mod_four_ratio(self, table_1e6):
        ps = PrimeSubset(table_1e6, ResidueClass(1, 4))
        est = wirsing_estimate(ps, 10**6, 0.5)
        exact = len(enumerate_q(ps, 10**6))
        assert 0.5 <= est / exact <= 2.0

    def test_pole_guard(self, table_1e4):
        with pytest.raises(DomainError):
            wirsing_estimate(all_primes(table_1e4), 10**4, 0.0)
        with pytest.raises(DomainError):
            wirsing_estimate(all_primes(table_1e4), 10**4, 1.0)

    @pytest.mark.parametrize("tau", [5e-324, 1e-308, 0.5])
    def test_tiny_tau_is_finite_or_refused(self, table_1e4, tau):
        # Gamma(5e-324) overflows a float: once an OverflowError traceback
        try:
            est = wirsing_estimate(all_primes(table_1e4), 10**4, tau)
        except DomainError:
            assert tau == 5e-324
        else:
            assert math.isfinite(est) and est > 0


class TestWirsingHypotheses:
    def test_residue_class_passes(self, table_1e6):
        report = verify_hypotheses_wirsing(
            PrimeSubset(table_1e6, ResidueClass(1, 4)), 10**6
        )
        assert report.all_pass

    def test_empty_fails_first(self, table_1e7):
        ps = PrimeSubset(table_1e7, Interval(0, 1))
        report = verify_hypotheses_wirsing(ps, 10**4)
        assert report.checks[0].status == "fail"

    def test_upper_range_fails_first(self, table_1e6):
        # primes concentrated in (sqrt(x), x]: the sum is not linear in log t
        ps = PrimeSubset(table_1e6, Interval(10**3, 10**6))
        report = verify_hypotheses_wirsing(ps, 10**6)
        assert report.checks[0].status == "fail"


class TestCountStability:
    def test_one_mod_four_normalised_ratio(self, table_1e7):
        ratios = []
        for x in (10**5, 10**6, 10**7):
            count = len(enumerate_q(PrimeSubset(table_1e7, ResidueClass(1, 4)), x))
            ratios.append(count * math.sqrt(math.log(x)) / x)
        assert max(ratios) / min(ratios) <= 1.5
