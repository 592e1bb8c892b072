import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsieve import primes
from sumsieve.errors import CapacityError, DomainError
from sumsieve.irreducibility import build_context, check_bv_condition
from sumsieve.primes import Interval, MinValue, PrimeSubset
from sumsieve.profiles import scaled
from sumsieve.sieves import prop_smallkbv_bound
from sumsieve.smooth import (
    SmoothQuery,
    bv_discrepancy_sum,
    dickman_rho,
    enumerate_smooth,
    psi,
    psi_coprime,
    smooth_tuple_count,
)
from sumsieve.sumset import IntegerSet


def smooth_numbers_by_factoring(x: int, y: int) -> list:
    """Oracle: factor every n <= x by trial division and keep the y-smooth."""
    out = []
    for n in range(1, x + 1):
        m = n
        p = 2
        ok = True
        while p * p <= m:
            if m % p == 0:
                if p > y:
                    ok = False
                    break
                while m % p == 0:
                    m //= p
            p += 1
        if ok and m > 1 and m > y:
            ok = False
        if ok:
            out.append(n)
    return out


class TestPsi:
    def test_small_exact_values(self):
        assert psi(SmoothQuery(10, 2)) == 4  # {1, 2, 4, 8}
        assert psi(SmoothQuery(100, 3)) == 20

    def test_y_at_least_x(self):
        assert psi(SmoothQuery(50, 50)) == 50
        assert psi(SmoothQuery(50, 97)) == 50

    def test_matches_factoring_oracle(self):
        rng = random.Random(1)
        for _ in range(10):
            x = rng.randrange(50, 3000)
            y = rng.randrange(2, 40)
            expected = smooth_numbers_by_factoring(x, y)
            assert psi(SmoothQuery(x, y)) == len(expected)
            assert enumerate_smooth(x, y).tolist() == expected

    def test_recurrence_matches_enumeration_grid(self):
        for x in (10**3, 10**4, 10**5):
            for y in (2, 3, 5, 10, 30, 100):
                assert psi(SmoothQuery(x, y)) == int(enumerate_smooth(x, y).size)

    def test_monotone_in_x_and_y(self):
        rng = random.Random(2)
        for _ in range(20):
            x = rng.randrange(100, 10**4)
            y = rng.randrange(2, 100)
            base = psi(SmoothQuery(x, y))
            assert psi(SmoothQuery(x + rng.randrange(1, 500), y)) >= base
            assert psi(SmoothQuery(x, y + rng.randrange(1, 50))) >= base

    def test_progressions_partition(self):
        rng = random.Random(3)
        for _ in range(15):
            x = rng.randrange(100, 10**4)
            y = rng.randrange(2, 30)
            d = rng.randrange(1, 60)
            total = sum(psi(SmoothQuery(x, y, d, a)) for a in range(d))
            assert total == psi(SmoothQuery(x, y))

    def test_progression_against_enumeration(self):
        # psi with a modulus reads enumerate_smooth, so the oracle factors
        x, y, d = 10**4, 10, 7
        smooth = smooth_numbers_by_factoring(x, y)
        for a in range(d):
            assert psi(SmoothQuery(x, y, d, a)) == sum(1 for n in smooth if n % d == a)

    def test_cap(self):
        with pytest.raises(CapacityError):
            psi(SmoothQuery(10**9 + 1, 10))

    def test_work_budget(self, monkeypatch):
        monkeypatch.setattr(primes, "ENTRY_CAP", 10)
        with pytest.raises(CapacityError):
            psi(SmoothQuery(10**8, 1000))

    def test_enumeration_work_budget(self, monkeypatch):
        # the budget counts the numbers listed, 1 included; psi with a
        # modulus lists the same numbers
        count = int(enumerate_smooth(10**4, 11).size)
        q = SmoothQuery(10**4, 11, 7, 3)
        expected = psi(q)
        monkeypatch.setattr(primes, "ENTRY_CAP", count)
        assert enumerate_smooth(10**4, 11).size == count
        assert psi(q) == expected
        monkeypatch.setattr(primes, "ENTRY_CAP", count - 1)
        for over in (lambda: enumerate_smooth(10**4, 11), lambda: psi(q)):
            with pytest.raises(CapacityError, match="smooth-number work budget exceeded"):
                over()
        monkeypatch.setattr(primes, "ENTRY_CAP", 0)
        with pytest.raises(CapacityError):
            enumerate_smooth(10**6, 2)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            SmoothQuery(10, 1)
        with pytest.raises(DomainError):
            SmoothQuery(10, 2, 5, None)
        with pytest.raises(DomainError):
            SmoothQuery(10, 2, 5, 7)


class TestPsiCoprime:
    def test_d_one(self):
        assert psi_coprime(SmoothQuery(100, 3), 1) == psi(SmoothQuery(100, 3))

    def test_large_prime_factors_no_op(self):
        # d with all prime factors above y removes nothing
        q = SmoothQuery(10**4, 10)
        assert psi_coprime(q, 13 * 17) == psi(q)

    def test_d_six_tiny(self):
        # 3-smooth numbers coprime to 6: only n = 1
        assert psi_coprime(SmoothQuery(100, 3), 6) == 1

    def test_against_enumeration_filter(self):
        rng = random.Random(4)
        for _ in range(10):
            x = rng.randrange(100, 5000)
            y = rng.randrange(2, 30)
            d = rng.randrange(1, 100)
            arr = enumerate_smooth(x, y)
            expected = int(np.count_nonzero(np.gcd(arr, d) == 1))
            assert psi_coprime(SmoothQuery(x, y), d) == expected


class SimpsonCollocation:
    """Independent integrator for the delay equation via the integral
    identity u rho(u) = integral of rho over [u-1, u], solved pointwise on a
    uniform mesh with composite Simpson weights (no Runge-Kutta involved)."""

    def __init__(self, step=1.0 / 512.0):
        self.h = step
        self.per_unit = round(1.0 / step)
        # mesh over [0, 2]: exact
        self.grid = [0.0]
        self.vals = [1.0]
        n2 = 2 * self.per_unit
        for i in range(1, n2 + 1):
            u = i * self.h
            self.grid.append(u)
            self.vals.append(1.0 if u <= 1.0 else 1.0 - math.log(u))
        self.top = 2.0

    def _integral(self, i_lo, i_hi):
        # composite Simpson over mesh indices [i_lo, i_hi] (even count)
        total = self.vals[i_lo] + self.vals[i_hi]
        total += 4.0 * sum(self.vals[i_lo + 1 : i_hi : 2])
        total += 2.0 * sum(self.vals[i_lo + 2 : i_hi : 2])
        return total * self.h / 3.0

    def extend_to(self, target):
        while self.top < target - 1e-12:
            i = len(self.vals)
            u = i * self.h
            i_lo = i - self.per_unit
            # u rho(u) = I_known + w * rho(u) where w is rho(u)'s own
            # Simpson weight at the right endpoint
            known = (
                self.vals[i_lo]
                + 4.0 * sum(self.vals[i_lo + 1 : i - 1 : 2])
                + 2.0 * sum(self.vals[i_lo + 2 : i - 1 : 2])
                + 4.0 * self.vals[i - 1]
            ) * self.h / 3.0
            w = self.h / 3.0
            rho_u = known / (u - w)
            self.vals.append(rho_u)
            self.grid.append(u)
            self.top = u

    def rho(self, u):
        self.extend_to(u + self.h)
        i = round(u / self.h)
        if abs(i * self.h - u) < 1e-12:
            return self.vals[i]
        raise ValueError("query off-mesh")


def identity_relative_error(u: float, n: int = 1024) -> float:
    """|1 - (1/u) * integral of rho(t) / rho(u) over [u - 1, u]|, by Simpson on
    each piece between integers (rho' jumps there), through log_rho."""
    ref = dickman_rho(u).log_rho
    lo = u - 1.0
    breaks = [lo] + [float(b) for b in range(math.ceil(lo), math.ceil(u))] + [u]
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        if b <= a:
            continue
        xs = np.linspace(a, b, n + 1)
        ys = np.exp([dickman_rho(float(t)).log_rho - ref for t in xs])
        total += (b - a) / n / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
    return abs(total / u - 1.0)


class TestDickman:
    def test_one_on_unit_interval(self):
        for u in (0.0, 0.25, 0.5, 1.0):
            assert dickman_rho(u).rho == 1.0

    def test_closed_form_on_second_interval(self):
        assert dickman_rho(2.0).rho == pytest.approx(1 - math.log(2), abs=1e-12)
        assert dickman_rho(1.5).rho == pytest.approx(1 - math.log(1.5), abs=1e-12)

    def test_strictly_decreasing_beyond_one(self):
        us = np.linspace(1.0, 30.0, 200)
        vals = [dickman_rho(float(u)).rho for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_against_simpson_collocation(self):
        oracle = SimpsonCollocation()
        for u in (3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0):
            mine = dickman_rho(u).rho
            theirs = oracle.rho(u)
            assert abs(mine - theirs) <= 1e-8, f"rho({u}): {mine} vs {theirs}"

    def test_integral_identity(self):
        rng = random.Random(5)
        for u in [1.0, 1.5, 2.0, 5.25] + [rng.uniform(1, 20) for _ in range(12)]:
            lhs = u * dickman_rho(u).rho
            total = 0.0
            lo = u - 1.0
            breaks = [lo] + [float(b) for b in range(math.ceil(lo), math.ceil(u))] + [u]
            for a, b in zip(breaks, breaks[1:]):
                if b <= a:
                    continue
                n = 256
                xs = np.linspace(a, b, n + 1)
                ys = np.array([dickman_rho(float(t)).rho for t in xs])
                h = (b - a) / n
                total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
            assert abs(lhs - total) <= 1e-8, f"identity off at u={u}"

    def test_published_anchors(self):
        # published values; rho(20) = 2.4617828e-29 is far below the absolute
        # 1e-8 checks, so only a relative check sees it
        assert dickman_rho(10.0).rho == pytest.approx(2.77017183772596e-11, rel=1e-12)
        assert dickman_rho(20.0).log_rho == pytest.approx(-65.8740818822, rel=1e-10)

    def test_integral_identity_relative_to_500(self):
        # integer and fractional u alike; rho underflows past u ~ 132.7, so
        # the identity is checked through log_rho
        worst = max(
            (identity_relative_error(float(u)), float(u))
            for u in np.linspace(2.0, 500.0, 61)
        )
        assert worst[0] <= 1e-10, f"relative identity off by {worst[0]:.3g} at u={worst[1]}"

    def test_far_out_values_finite_decreasing_rho_underflows(self):
        far = [dickman_rho(u) for u in (30.0, 50.0, 100.0, 500.0)]
        logs = [v.log_rho for v in far]
        assert all(math.isfinite(lr) for lr in logs)
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert far[2].rho > 0.0
        assert dickman_rho(133.0).rho == 0.0 and far[3].rho == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            dickman_rho(-0.1)
        with pytest.raises(DomainError):
            dickman_rho(501.0)


class TestDiscrepancySum:
    def test_empty_subset_gives_zero(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        total, rows = bv_discrepancy_sum(SmoothQuery(10**4, 10), ps, 50, 2)
        assert total == 0.0 and rows == []

    def test_q_one_gives_zero(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(50, 100))
        total, rows = bv_discrepancy_sum(SmoothQuery(10**4, 10), ps, 1, 2)
        assert total == 0.0 and rows == []

    def test_overlapping_primes_rejected(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(5, 100))
        with pytest.raises(DomainError):
            bv_discrepancy_sum(SmoothQuery(10**4, 10), ps, 20, 2)

    def test_exact_value_cross_checked(self, table_1e4):
        # one brute-force pass with the loop order swapped (residues
        # outermost) checks all three callers of the discrepancy kernel: the
        # smooth-number sum, and the small-k remainder and the BV condition's
        # discrepancy with S the same smooth numbers and P0* = ps
        x, y, q_limit, k_hat = 10**5, 20, 90, 2
        ps = PrimeSubset(table_1e4, Interval(50, 100))
        total, rows = bv_discrepancy_sum(SmoothQuery(x, y), ps, q_limit, k_hat)
        smooth = enumerate_smooth(x, y)
        support = ps.primes_in(1, q_limit**2).tolist()
        d_values = []

        def build(i, d, r):
            if d > 1:
                d_values.append((d, r))
            for j in range(i, len(support)):
                p = support[j]
                if d * p > q_limit**2:
                    break
                build(j + 1, d * p, r + 1)

        build(0, 1, 0)
        deviations = []
        for d, r in sorted(d_values):
            best = 0.0
            psi_d = int(np.count_nonzero(np.gcd(smooth, d) == 1))
            phi = sum(1 for a in range(d) if math.gcd(a, d) == 1)
            for a in range(d):
                if math.gcd(a, d) != 1:
                    continue
                cnt = int(np.count_nonzero(smooth % d == a))
                best = max(best, abs(cnt - psi_d / phi))
            deviations.append((r, best))

        def expected(base):
            return sum(base**r * best for r, best in deviations)

        assert total == pytest.approx(expected(3.0 * k_hat), rel=1e-12)
        assert len(rows) == len(d_values)

        s = IntegerSet(smooth.tolist())
        big_k = 30.0  # and K**star_exponent = 40, so P0* is all of ps
        profile = scaled(
            k_coefficient=big_k * (len(s) / x) * 0.25 / math.log(x) ** 2,
            star_exponent=math.log(40.0) / math.log(big_k),
            c_override=0.5,
        )
        ctx = build_context(s, s, ps, x, profile)
        assert ctx.K == pytest.approx(big_k, rel=1e-12)
        assert ctx.ps_star.primes().tolist() == ps.primes().tolist()
        shifts = [0, 2, 6]
        rep = prop_smallkbv_bound(s, shifts, ctx, q_limit)
        assert rep.remainder == pytest.approx(expected(3.0 * len(shifts)), rel=1e-12)
        disc = check_bv_condition(ctx, s, q_limit).values["disc_sum"]
        assert disc == pytest.approx(expected(3.0 ** (1 + math.log(ctx.K) / math.log(3))), rel=1e-12)

    def test_rows_sorted_and_consistent(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(40, 80))
        total, rows = bv_discrepancy_sum(SmoothQuery(10**4, 10), ps, 60, 3)
        ds = [row.d for row in rows]
        assert ds == sorted(ds)
        assert total == pytest.approx(sum(row.term for row in rows), rel=1e-12)

    def test_modulus_budget_carries_partial_progress(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(40, 200))
        with pytest.raises(CapacityError) as err:
            bv_discrepancy_sum(
                SmoothQuery(10**4, 10), ps, 150, 2, modulus_work_cap=100
            )
        assert err.value.partial_sum >= 0.0
        assert hasattr(err.value, "partial_breakdown")

    def test_table_below_q_squared_is_refused(self, table_1e4, table_1e6):
        # Q^2 = 10201 passes the 10^4 table, and primes >= 40 run past it
        with pytest.raises(CapacityError, match="exceeds table limit"):
            bv_discrepancy_sum(SmoothQuery(10**4, 10), PrimeSubset(table_1e4, MinValue(40)), 101, 2)
        # no prime of (40, 200] lies past the table: nothing is dropped
        small, large = (PrimeSubset(t, Interval(40, 200)) for t in (table_1e4, table_1e6))
        assert bv_discrepancy_sum(SmoothQuery(10**4, 10), small, 150, 2) == bv_discrepancy_sum(
            SmoothQuery(10**4, 10), large, 150, 2
        )


class TestTupleCount:
    def test_single_shift_is_psi(self):
        rep = smooth_tuple_count(10**4, 10, [0])
        assert rep.count == psi(SmoothQuery(10**4, 10))

    def test_pair_example_by_scan(self):
        rep = smooth_tuple_count(10**4, 10, [0, 1])
        smooth_set = set(enumerate_smooth(10**4 + 1, 10).tolist())
        direct = sum(
            1 for n in range(1, 10**4 + 1) if n in smooth_set and n + 1 in smooth_set
        )
        assert rep.count == direct

    def test_everything_smooth(self):
        rep = smooth_tuple_count(100, 200, [0, 5])
        assert rep.count == 100

    def test_comparators_present(self):
        rep = smooth_tuple_count(10**4, 10, [0, 2, 6])
        assert rep.u == pytest.approx(math.log(10**4) / math.log(10), rel=1e-12)
        assert rep.heuristic_u_super <= rep.heuristic_u_power

    def test_cap(self):
        with pytest.raises(CapacityError):
            smooth_tuple_count(10**8 + 1, 10, [0])

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.integers(2, 3000),
        y=st.integers(2, 4000),  # y >= x + the largest shift included
        others=st.lists(st.integers(1, 500), max_size=3, unique=True),
    )
    def test_against_trial_division(self, x, y, others):
        shifts = [0] + others
        count = sum(1 for n in range(1, x + 1)
                    if all(_largest_prime_factor(n + a) <= y for a in shifts))
        assert smooth_tuple_count(x, y, shifts).count == count


def _largest_prime_factor(n: int) -> int:
    """The largest prime factor of n >= 1 by trial division (1 for n = 1)."""
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


class TestScalingEchoes:
    def test_psi_ratio_trend_toward_half(self):
        # log Psi(x, log^2 x)/log x decreases monotonically toward 1/2
        ratios = []
        for x in (10**4, 10**5, 10**6, 10**7):
            y = int(math.log(x) ** 2)
            ratios.append(math.log(psi(SmoothQuery(x, y))) / math.log(x))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r > 0.5 for r in ratios)
