import math
import random

import numpy as np
import pytest

from sumsieve import primes as primes_module
from sumsieve.errors import CapacityError, DivisibilityError, DomainError
from sumsieve.irreducibility import (
    build_context,
    check_bv_condition,
    check_scs_condition,
    conclusion_bounds,
    half_occupancy_identity_gap,
    larger_sieve_budget_check,
    ostmann_epsilon_profile,
    ostmann_multiplicative_diagnostic,
)
from sumsieve.primes import And, Excluding, Interval, MinValue, PrimeSubset, ResidueClass
from sumsieve.profiles import STRICT, scaled
from sumsieve.semigroup import enumerate_q
from sumsieve.sieves import OccupancyProfile, occupancy, prop_smallkbv_bound
from sumsieve.smooth import enumerate_smooth
from sumsieve.sumset import IntegerSet


@pytest.fixture(scope="module")
def smooth3_context(table_1e6):
    s = IntegerSet(enumerate_smooth(10**4, 3).tolist())
    ps = PrimeSubset(table_1e6, Interval(3, 100))
    profile = scaled(
        k_coefficient=0.002,
        star_exponent=1.2,
        condition_coefficient=0.0015,
        c_floor_exponent=0.25,
    )
    return build_context(s, s, ps, 10**4, profile), s


class TestBuildContext:
    def test_smooth3_instance_clean(self, smooth3_context):
        ctx, s = smooth3_context
        assert ctx.hypotheses_met
        assert ctx.c == 1.0
        assert ctx.sigma == pytest.approx(len(s) / 10**4)
        assert ctx.sigma0 == 1.0
        assert not ctx.ps_star.is_empty()

    def test_rejects_divisible_element(self, table_1e6):
        ps = PrimeSubset(table_1e6, Interval(5, 50))
        with pytest.raises(DivisibilityError) as err:
            build_context(IntegerSet([9, 14]), IntegerSet([9]), ps, 100, STRICT)
        assert (14, 7) in err.value.pairs

    def test_rejection_matches_direct_scan(self, table_1e6):
        rng = random.Random(1)
        ps = PrimeSubset(table_1e6, Interval(10, 200))
        plist = ps.primes().tolist()
        for _ in range(20):
            values = IntegerSet(rng.sample(range(1, 5000), 80))
            dirty = any(any(v % p == 0 for p in plist if p <= v) for v in values)
            try:
                build_context(values, values, ps, 5000, scaled(c_floor_exponent=0.35))
                assert not dirty
            except DivisibilityError:
                assert dirty

    def test_rejection_counts_every_hit(self, table_1e6):
        # the error lists HIT_CAP pairs, names five and counts every element
        # with a prime factor 3 mod 4, here by trial division
        def hit(n):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    if d % 4 == 3:
                        return True
                    n //= d
                d += 1
            return n % 4 == 3

        s = IntegerSet(range(1, 1001))
        with pytest.raises(DivisibilityError) as err:
            build_context(s, s, PrimeSubset(table_1e6, ResidueClass(3, 4)), 10**4, STRICT)
        assert err.value.total == sum(map(hit, range(1, 1001))) == 736
        assert len(err.value.pairs) == primes_module.HIT_CAP
        assert str(err.value).endswith("(+731 more)")

    @pytest.mark.parametrize("c, k_finite", [(1e-300, False), (1e-160, False), (1e-80, True),
                                             (1.4e-150, True)])
    def test_tiny_asserted_c(self, table_1e6, c, k_finite):
        # sigma0 sigma c^2 underflows to 0 (1e-300, 1e-160), K^3 passes the
        # float range (1e-80), and the BV weight 3K would (1.4e-150)
        s = IntegerSet([5, 13, 17, 29])
        ctx = build_context(s, s, PrimeSubset(table_1e6, ResidueClass(3, 4)), 10**4,
                            scaled(c_override=c))
        assert math.isfinite(ctx.K) == k_finite
        k_failure = f"c = {c:g}: K passes the float range and P0* is empty"
        assert (k_failure in ctx.hypothesis_failures) != k_finite
        assert ctx.ps_star.is_empty() and not ctx.hypotheses_met
        assert conclusion_bounds(ctx).upper_B == math.inf
        assert not check_bv_condition(ctx, s, 5).holds

    def test_sigma0_one_when_s0_is_s(self, smooth3_context):
        ctx, _ = smooth3_context
        assert ctx.sigma0 == 1.0

    def test_strict_profile_reports_empty_star(self, table_1e6):
        s = IntegerSet(enumerate_smooth(10**4, 3).tolist())
        ps = PrimeSubset(table_1e6, Interval(3, 100))
        ctx = build_context(s, s, ps, 10**4, STRICT)
        assert ctx.ps_star.is_empty()
        assert ctx.hypothesis_failures  # c collapses at the strict window floor

    def test_strict_k_dominates_its_cube_root(self, table_1e6):
        # strict c survives at x = 10^6 for this instance; K > 1 so K^3 > K
        # and no prime at or below K can enter P0*
        ps = PrimeSubset(table_1e6, ResidueClass(3, 4))
        s = enumerate_q(PrimeSubset(table_1e6, ResidueClass(1, 4)), 10**6)
        ctx = build_context(s, s, ps, 10**6, STRICT)
        assert ctx.hypotheses_met
        assert ctx.c > 0
        assert ctx.K > 1
        assert ctx.K**3 > ctx.K
        assert ctx.ps_star.is_empty()  # K^3 is astronomically beyond the table

    def test_k_monotone_in_sigma_and_c(self):
        # shrinking sigma or c never shrinks K (direct formula check)
        def k_of(sigma, c):
            return STRICT.k_coefficient * math.log(10**6) ** 2 / (1.0 * sigma * c * c)

        assert k_of(0.1, 0.5) >= k_of(0.2, 0.5)
        assert k_of(0.1, 0.25) >= k_of(0.1, 0.5)


def _multiples_keys():
    return {key for key in primes_module._CACHE if key[0] == "multiples"}


def _q_instance(table, x=10**4):
    """P0 = primes 3 mod 4, and S the integers up to x with no prime factor
    in P0 (Q(T) for T the other primes): S is clear of P0."""
    p0 = PrimeSubset(table, ResidueClass(3, 4))
    s = enumerate_q(PrimeSubset(table, Excluding(frozenset(p0.primes_in(1, x).tolist()))), x)
    return p0, IntegerSet(s.elements)


def _scaled_profile(rng, s, c, x):
    """A scaled profile with K about 20-60 and its own P0* threshold."""
    k_target = rng.uniform(20, 60)
    return scaled(
        k_coefficient=k_target * (len(s) / x) * c * c / math.log(x) ** 2,
        star_exponent=math.log(rng.uniform(13, 55)) / math.log(k_target),
        c_floor_exponent=0.3,
    )


class TestKeptP0Mask:
    """build_context clears S against the one P0 mask the cache keeps per
    (P0, x), and never keeps a mask of a per-instance P0*."""

    def test_one_mask_for_many_thresholds(self, table_1e6):
        x = 10**4
        p0, s = _q_instance(table_1e6, x)
        c = primes_module.density_ratio_c(p0, x, window_floor_exponent=0.3)
        rng = random.Random(21)
        before = _multiples_keys()
        thresholds = set()
        for _ in range(200):
            ctx = build_context(s, s, p0, x, _scaled_profile(rng, s, c, x))
            thresholds.add(ctx.ps_star.describe())
            shifts = IntegerSet(rng.sample(range(0, x), 2))
            prop_smallkbv_bound(s, shifts, ctx, 30)
        assert len(thresholds) == 200
        added = _multiples_keys() - before
        assert added <= {("multiples", table_1e6.limit, p0.selector, x)}

    def test_cap_below_the_mask_keeps_nothing(self, table_1e6, monkeypatch):
        x = 10**4
        p0, s = _q_instance(table_1e6, x)
        c = primes_module.density_ratio_c(p0, x, window_floor_exponent=0.3)
        profile = _scaled_profile(random.Random(22), s, c, x)
        dirty = IntegerSet(list(s.elements) + [21, 77 * 11])  # 3 and 7 are in P0
        want = build_context(s, s, p0, x, profile).to_dict()
        with pytest.raises(DivisibilityError) as err:
            build_context(dirty, s, p0, x, profile)
        want_pairs = err.value.pairs
        assert want_pairs[:2] == [(21, 3), (77 * 11, 7)]
        # the mask over [0, x] takes x + 1 bytes: a cap of x refuses the
        # mask, and one short of its entry's charge builds it but keeps nothing
        for cap in (x, x + primes_module.ENTRY_BYTES):
            with monkeypatch.context() as mp:
                mp.setattr(primes_module, "MEMORY_CAP", cap)
                mp.setattr(primes_module, "_CACHE", primes_module._ByteCache())
                assert build_context(s, s, p0, x, profile).to_dict() == want
                with pytest.raises(DivisibilityError) as err:
                    build_context(dirty, s, p0, x, profile)
                assert err.value.pairs == want_pairs
                assert not _multiples_keys()

    def test_table_short_of_x_takes_the_scan(self, table_1e4, table_1e6):
        # P0 unbounded past a 10^4 table and x = 2 * 10^4: no mask is kept,
        # and the scan up to max S is the one that answers
        x = 2 * 10**4
        p0, s = _q_instance(table_1e6, 10**4)
        short = PrimeSubset(table_1e4, p0.selector)
        before = _multiples_keys()
        ctx = build_context(s, s, short, x, scaled(c_floor_exponent=0.3))
        assert ctx.s_size == len(s)
        assert _multiples_keys() == before
        with pytest.raises(CapacityError, match="range end 10007 exceeds table limit 10000"):
            build_context(IntegerSet([1, 10007]), IntegerSet([1]), short, x, STRICT)


class TestConditions:
    def test_scs_holds_on_smooth3_scaled(self, smooth3_context):
        ctx, _ = smooth3_context
        res = check_scs_condition(ctx)
        assert res.holds
        assert res.values["sum_value"] > 0
        assert res.values["profile"] == "scaled"

    def test_scs_empty_star_fails(self, table_1e6):
        s = IntegerSet(enumerate_smooth(10**4, 3).tolist())
        ps = PrimeSubset(table_1e6, Interval(3, 100))
        ctx = build_context(s, s, ps, 10**4, STRICT)
        res = check_scs_condition(ctx)
        assert not res.holds
        assert res.values["sum_value"] == 0.0
        assert res.values["star_empty"]

    def test_scs_monotone_in_star(self, smooth3_context, table_1e6):
        ctx, s = smooth3_context
        base = check_scs_condition(ctx).values["sum_value"]
        # a strictly smaller star set cannot give a larger sum
        import dataclasses

        star = ctx.ps_star
        shrunk = dataclasses.replace(
            ctx, ps_star=PrimeSubset(star.base, And((star.selector, MinValue(80)))))
        assert check_scs_condition(shrunk).values["sum_value"] <= base + 1e-15

    def test_bv_q_one_fails(self, smooth3_context):
        ctx, s = smooth3_context
        res = check_bv_condition(ctx, s, 1)
        assert not res.holds
        assert res.values["main_sum"] == 0.0

    def test_bv_table_below_q_squared_is_refused(self, smooth3_context, table_1e4):
        ctx, s = smooth3_context
        unbounded = build_context(s, s, PrimeSubset(table_1e4, MinValue(5)), 10**4, ctx.profile)
        assert check_bv_condition(unbounded, s, 100).values["Q"] == 100
        # Q^2 = 10201 passes the 10^4 table, and P0* has primes past it
        with pytest.raises(CapacityError, match="exceeds table limit"):
            check_bv_condition(unbounded, s, 101)

    def test_bv_exact_evaluation_powers_of_two(self, table_1e6):
        # S = powers of two; an interval prime set never covers the dyadic
        # window mesh, so the density ratio is asserted via the profile and
        # the measured value rides along in the context
        s = IntegerSet([2**j for j in range(20)])  # up to ~10^6
        ps = PrimeSubset(table_1e6, Interval(10, 40))
        x = 2**20
        sigma = len(s) / x
        k_target, star_min = 30.0, 11.0
        profile = scaled(
            k_coefficient=k_target * sigma * 0.25 / math.log(x) ** 2,
            star_exponent=math.log(star_min) / math.log(k_target),
            condition_coefficient=0.01,
            c_override=0.5,
        )
        ctx = build_context(s, s, ps, x, profile)
        assert ctx.c == 0.5
        assert ctx.c_measured == 0.0
        assert ctx.K == pytest.approx(k_target, rel=1e-9)
        assert set(ctx.ps_star.primes().tolist()) == set(
            p for p in ps.primes().tolist() if p >= star_min
        )
        res = check_bv_condition(ctx, s, 35)
        # direct recomputation of the main sum (moduli up to Q)
        q_primes = ctx.ps_star.primes_in(1, 35).tolist()
        expected_main = 0.0
        for i, p in enumerate(q_primes):
            expected_main += 1.0 / p
            for q in q_primes[i + 1 :]:
                if p * q <= 35:
                    expected_main += 1.0 / (p * q)
        assert res.values["main_sum"] == pytest.approx(expected_main, rel=1e-12)
        # direct recomputation of the discrepancy sum (moduli up to Q^2)
        d_primes = ctx.ps_star.primes_in(1, 35**2).tolist()
        da = np.array(s.elements)
        d_list = [(p, 1) for p in d_primes] + [
            (p * q, 2)
            for i, p in enumerate(d_primes)
            for q in d_primes[i + 1 :]
            if p * q <= 35**2
        ]
        weight = 3.0 ** (1.0 + math.log(ctx.K) / math.log(3.0))
        expected_disc = 0.0
        for d, r in d_list:
            best = 0.0
            phi = sum(1 for a in range(d) if math.gcd(a, d) == 1)
            for a in range(d):
                if math.gcd(a, d) != 1:
                    continue
                cnt = int(np.count_nonzero(da % d == a))
                best = max(best, abs(cnt - len(s) / phi))
            expected_disc += weight**r * best
        assert res.values["disc_sum"] == pytest.approx(expected_disc, rel=1e-12)

    def test_conclusion_shapes(self, table_1e6):
        s = IntegerSet(enumerate_smooth(10**4, 3).tolist())
        ps = PrimeSubset(table_1e6, Interval(3, 100))
        profile = scaled(c_floor_exponent=0.25)
        ctx = build_context(s, s, ps, 10**4, profile)
        assert ctx.c == 1.0
        bounds = conclusion_bounds(ctx)
        log4 = math.log(10**4) ** 4
        assert bounds.upper_B == pytest.approx(100.0 * log4, rel=1e-12)
        assert bounds.lower_A == pytest.approx(
            100.0 * ctx.sigma0 * ctx.sigma / log4, rel=1e-12
        )
        # c = 1/2 makes the upper shape 16 times larger
        import dataclasses

        halved = dataclasses.replace(ctx, c=0.5)
        assert conclusion_bounds(halved).upper_B == pytest.approx(
            16.0 * bounds.upper_B, rel=1e-12
        )
        assert "implied constant" in bounds.note


class TestEpsilonProfile:
    def test_full_occupancy(self):
        a = IntegerSet(range(1, 3001))
        prof = ostmann_epsilon_profile(a, 3000, 50)
        for p, eps in prof.entries.items():
            assert eps == pytest.approx(p / 2.0)
        assert prof.moment_large > 0  # every prime has |eps| = p/2 >= p/4

    def test_squares(self):
        squares = IntegerSet([i * i for i in range(1, 1001)])
        prof = ostmann_epsilon_profile(squares, 10**6, 10**3)
        for p, eps in prof.entries.items():
            if p > 2:
                assert eps == 0.5
        assert prof.entries[2] == 1.0
        odd_sum = sum(
            (math.log(p) / p) * (eps * eps) / (p * p)
            for p, eps in prof.entries.items()
            if p > 2
        )
        assert odd_sum < 0.1

    def test_singleton(self):
        prof = ostmann_epsilon_profile(IntegerSet([7]), 100, 30)
        for p, eps in prof.entries.items():
            assert eps == pytest.approx(1 - p / 2.0)

    def test_matches_occupancy_module(self, table_1e4):
        rng = random.Random(2)
        a = IntegerSet(rng.sample(range(1, 5000), 120))
        y_limit = 200
        prof = ostmann_epsilon_profile(a, 5000, y_limit)
        ps = PrimeSubset(table_1e4, Interval(1, y_limit))
        occ = occupancy(a, ps)
        for p in ps.primes().tolist():
            assert prof.entries[p] == occ.get(p) - p / 2.0

    def test_identity_gap_tiny(self):
        rng = random.Random(3)
        a = IntegerSet(rng.sample(range(1, 20000), 500))
        prof = ostmann_epsilon_profile(a, 20000, 500)
        assert half_occupancy_identity_gap(prof) <= 1e-9


class TestBudgetCheck:
    def test_half_split_within(self, table_1e4):
        x, y_limit = 10**6, 300
        ps = PrimeSubset(table_1e4, Interval(1, y_limit))
        plist = ps.primes().tolist()
        prof_a = OccupancyProfile({p: p // 2 for p in plist})
        prof_b = OccupancyProfile({p: (p + 1) // 2 for p in plist})
        res = larger_sieve_budget_check(prof_a, prof_b, x, y_limit)
        # roughly 4 sum log p / p which is about 4 log Y
        assert res.lhs == pytest.approx(4 * math.log(y_limit), rel=0.35)
        assert res.within

    def test_tiny_window_within(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 10))
        plist = ps.primes().tolist()
        prof = OccupancyProfile({p: max(p // 2, 1) for p in plist})
        res = larger_sieve_budget_check(prof, prof, 10**6, 10)
        assert res.within

    def test_occupancy_one_exceeds(self, table_1e4):
        x = 10**4
        y_limit = 500  # well beyond 2 log x
        ps = PrimeSubset(table_1e4, Interval(1, y_limit))
        plist = ps.primes().tolist()
        prof_a = OccupancyProfile({p: 1 for p in plist})
        prof_b = OccupancyProfile({p: 1 for p in plist})
        res = larger_sieve_budget_check(prof_a, prof_b, x, y_limit)
        assert not res.within
        assert res.lhs > res.budget

    def test_complementarity_enforced(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 20))
        plist = ps.primes().tolist()
        full = OccupancyProfile({p: p for p in plist})
        with pytest.raises(DomainError):
            larger_sieve_budget_check(full, full, 100, 20)


class TestMultiplicativeDiagnostic:
    def test_squares_diagnostic_finite(self):
        squares = IntegerSet([i * i for i in range(1, 1001)])
        diag = ostmann_multiplicative_diagnostic(ostmann_epsilon_profile(squares, 10**6, 10**3))
        assert diag["sum_f"] > 0
        assert diag["large_sieve_bound"] > 0
        assert math.isfinite(diag["ratio"])
