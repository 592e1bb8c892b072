import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsieve import arith
from sumsieve import primes as primes_module
from sumsieve import sieves
from sumsieve.errors import CapacityError, DomainError
from sumsieve.irreducibility import GenThmContext, build_context
from sumsieve.primes import (
    And,
    Excluding,
    Interval,
    MinValue,
    PrimeSubset,
    ResidueClass,
    all_primes,
    density_ratio_c,
)
from sumsieve.profiles import STRICT, scaled
from sumsieve.semigroup import enumerate_q
from sumsieve.sieves import (
    OccupancyProfile,
    avoided_classes,
    inverse_sieve_lower_bound,
    large_sieve_bound,
    larger_sieve_bound,
    middlek_bound,
    occupancy,
    prop_smallkbv_bound,
    prop_smallkscs_bound,
    reduced_residues_mask,
    selberg_bound,
    sift_count,
)
from sumsieve.sumset import IntegerSet


def sift_count_elementwise(s, shifts, ps) -> int:
    """Independent oracle: per-element loop, primes innermost."""
    plist = ps.primes().tolist()
    shift_list = list(shifts)
    count = 0
    for v in s:
        ok = True
        for p in plist:
            r = v % p
            if any(r == a % p for a in shift_list):
                ok = False
                break
        if ok:
            count += 1
    return count


class TestOccupancy:
    def test_examples(self, table_1e4):
        ps3 = PrimeSubset(table_1e4, Interval(2, 3))
        prof = occupancy(IntegerSet([1, 4, 7, 10]), ps3)
        assert prof.get(3) == 1  # all = 1 mod 3
        ps2 = PrimeSubset(table_1e4, Interval(1, 2))
        assert occupancy(IntegerSet([1, 2]), ps2).get(2) == 2

    def test_against_direct_residue_sets(self, table_1e4):
        rng = random.Random(1)
        ps = PrimeSubset(table_1e4, Interval(90, 110))
        for _ in range(30):
            a = IntegerSet(rng.sample(range(0, 5000), 50))
            prof = occupancy(a, ps)
            for p in ps.primes().tolist():
                assert prof.get(p) == len({v % p for v in a})


class TestSiftCount:
    def test_no_primes(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        assert sift_count(range(1, 101), [0], ps) == 100

    def test_sift_by_everything(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 100))
        # only n = 1 has no prime factor at or below its value
        assert sift_count(range(1, 101), [0], ps) == 1

    def test_matches_elementwise_oracle(self, table_1e4, monkeypatch):
        rng = random.Random(2)
        cases = []
        for _ in range(25):
            s = IntegerSet(rng.sample(range(1, 3000), rng.randrange(50, 300)))
            shifts = IntegerSet(rng.sample(range(0, 3000), rng.randrange(1, 5)))
            lo = rng.randrange(2, 40)
            ps = PrimeSubset(table_1e4, Interval(lo, lo + rng.randrange(10, 200)))
            cases.append((s, shifts, ps))
        s = IntegerSet(rng.sample(range(1, 3000), 200))
        cases += [
            # shifts equal to elements
            (s, IntegerSet(list(s)[::40]), PrimeSubset(table_1e4, Interval(2, 60))),
            (s, IntegerSet(list(s)[:3]), PrimeSubset(table_1e4, Interval(0, 1))),
            # primes beyond every element and shift
            (s, IntegerSet([5, 17, list(s)[7]]), PrimeSubset(table_1e4, MinValue(3001))),
            # more than 8 distinct residues per prime
            (s, IntegerSet(rng.sample(range(0, 3000), 12)),
             PrimeSubset(table_1e4, Interval(10, 400))),
            # 0, 1 and prime powers, as elements and as differences
            (IntegerSet([0, 1, 2, 4, 8, 9, 27, 25, 125, 49, 1024, 2187]),
             IntegerSet([0, 1]), PrimeSubset(table_1e4, ResidueClass(1, 4))),
            (IntegerSet([0, 1, 2, 4, 8, 9, 27, 25, 125, 49, 1024, 2187]),
             IntegerSet([0]), PrimeSubset(table_1e4, Interval(2, 3))),
        ]
        # around 10^12 no multiples mask can cover the differences
        assert 10**12 > primes_module.MASK_CAP
        big = IntegerSet(rng.sample(range(10**12 - 10**5, 10**12 + 10**5), 60))
        cases += [
            (big, IntegerSet(rng.sample(range(0, 10**12), 3)),
             PrimeSubset(table_1e4, Interval(100, 2000))),
            (big, IntegerSet([big.elements[3], 10**12 - 7]),
             PrimeSubset(table_1e4, Interval(0, 60))),
        ]
        for s, shifts, ps in cases:
            expected = sift_count_elementwise(s, shifts, ps)
            assert sift_count(s, shifts, ps) == expected
            # a memory cap below every multiples mask forces the per-prime sweep
            with monkeypatch.context() as patch:
                patch.setattr(primes_module, "MEMORY_CAP", 0)
                assert sift_count(s, shifts, ps) == expected

    def test_large_prime_equality_path(self, table_1e4):
        # subset includes primes beyond every element: congruence = equality
        ps = PrimeSubset(table_1e4, Interval(50, 10**4))
        s = IntegerSet([10, 20, 30])
        assert sift_count(s, [20], ps) == sift_count_elementwise(s, [20], ps) == 2


class TestLargerSieve:
    def test_nu_one_gives_bound_one(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(31, 100))
        prof = OccupancyProfile({p: 1 for p in ps.primes().tolist()})
        rep = larger_sieve_bound(prof, ps, 961)
        assert rep.valid
        assert rep.bound == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_denominator_invalid(self, table_1e4):
        # squares up to 31^2 with the narrow window: denominator < 0
        squares = IntegerSet([i * i for i in range(1, 32)])
        ps = PrimeSubset(table_1e4, Interval(31, 100))
        rep = larger_sieve_bound(occupancy(squares, ps), ps, 961)
        assert not rep.valid
        assert rep.bound == math.inf

    def test_squares_with_wide_prime_set(self, table_1e4):
        squares = IntegerSet([i * i for i in range(1, 32)])
        ps = PrimeSubset(table_1e4, Interval(1, 250))
        prof = occupancy(squares, ps)
        rep = larger_sieve_bound(prof, ps, 961)
        # oracle: the formula assembled directly
        log_n = math.log(961)
        num = sum(math.log(p) for p in ps.primes().tolist()) - log_n
        den = sum(math.log(p) / prof.get(p) for p in ps.primes().tolist()) - log_n
        assert rep.valid
        assert rep.bound == pytest.approx(num / den, rel=1e-12)
        assert rep.bound >= 31

    def test_zero_occupancy_reports_empty(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(2, 5))
        prof = OccupancyProfile({3: 0, 5: 2})
        rep = larger_sieve_bound(prof, ps, 100)
        assert not rep.valid and rep.bound == 0.0

    def test_set_outside_1_to_n_is_not_valid(self, table_1e4):
        # 361 elements in [2, 362] but N = 11: the bound 34.7 is no bound for A
        ps = PrimeSubset(table_1e4, Interval(2, 2000))
        prof = occupancy(IntegerSet(range(2, 363)), ps)
        assert prof.span == (2, 362)
        rep = larger_sieve_bound(prof, ps, 11)
        assert rep.hypotheses == {"set_within_1_to_N": False}
        assert not rep.valid and not rep.hypotheses_ok
        assert rep.bound < 361
        # 0 lies outside [1, N] as well
        rep = larger_sieve_bound(occupancy(IntegerSet([0, 4, 8]), ps), ps, 8)
        assert not rep.valid and rep.hypotheses == {"set_within_1_to_N": False}

    def test_set_inside_1_to_n_is_recorded(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(2, 2000))
        rep = larger_sieve_bound(occupancy(IntegerSet([1, 2, 4, 8, 16, 32]), ps), ps, 32)
        assert rep.valid and rep.hypotheses == {"set_within_1_to_N": True}
        assert rep.bound >= 6
        # a hand-built profile carries no range and no hypothesis
        prof = OccupancyProfile({p: 1 for p in ps.primes().tolist()})
        assert prof.span is None
        assert larger_sieve_bound(prof, ps, 32).hypotheses == {}

    def test_full_occupancy_formula_consistency(self, table_1e4):
        # nu(p) = min(p, k) must allow any k-element set
        k = 12
        ps = PrimeSubset(table_1e4, Interval(1, 1000))
        prof = OccupancyProfile({p: min(p, k) for p in ps.primes().tolist()})
        rep = larger_sieve_bound(prof, ps, 500)
        assert rep.valid and rep.bound >= k

    def test_randomised_soundness(self, table_1e4):
        rng = random.Random(3)
        checked = 0
        for _ in range(150):
            n_limit = rng.randrange(200, 4000)
            a = IntegerSet(rng.sample(range(1, n_limit + 1), rng.randrange(3, 50)))
            lo = rng.randrange(2, 50)
            ps = PrimeSubset(table_1e4, Interval(lo, lo + rng.randrange(30, 500)))
            if ps.is_empty():
                continue
            rep = larger_sieve_bound(occupancy(a, ps), ps, n_limit)
            if rep.valid:
                checked += 1
                assert rep.bound >= len(a) - 1e-9
        assert checked > 20


class TestLargeSieve:
    def test_omega_zero(self):
        rep = large_sieve_bound(OccupancyProfile({}), 100, 5)
        assert rep.denominator_L == 1.0
        assert rep.bound == 125.0

    def test_parity_example(self):
        rep = large_sieve_bound(OccupancyProfile({2: 1}), 100, 2)
        assert rep.denominator_L == 2.0
        assert rep.bound == 52.0
        odd_count = len([n for n in range(1, 101) if n % 2 == 1])
        assert odd_count <= rep.bound

    def test_half_classes_instance(self, table_1e4):
        rng = random.Random(4)
        x, q_limit = 10**4, 31
        primes = table_1e4.primes_between(1, q_limit).tolist()
        omega = {p: (p - 1) // 2 for p in primes}
        avoided = {p: rng.sample(range(p), omega[p]) for p in primes}
        arr = np.arange(1, x + 1)
        keep = np.ones(arr.shape, dtype=bool)
        for p, res in avoided.items():
            keep &= ~np.isin(arr % p, res)
        count = int(keep.sum())
        rep = large_sieve_bound(OccupancyProfile(omega), x, q_limit)
        assert rep.bound >= count

    def test_bound_from_a_set_covers_it(self, table_1e4):
        # omega(p) = p - nu(p) from the set itself; S inside [lo, lo + x)
        rng = random.Random(6)
        for _ in range(40):
            x = rng.randrange(50, 3000)
            lo = rng.randrange(0, 10**5)
            a = IntegerSet(rng.sample(range(lo, lo + x), rng.randrange(1, min(x, 400))))
            q_limit = rng.randrange(2, 40)
            ps = PrimeSubset(table_1e4, Interval(1, q_limit))
            omega = avoided_classes(occupancy(a, ps))
            assert omega.entries == {p: p - len({v % p for v in a}) for p in ps.primes().tolist()}
            rep = large_sieve_bound(omega, x, q_limit)
            assert rep.valid and rep.hypotheses == {"set_within_interval_of_length_x": True}
            assert rep.bound >= len(a)

    def test_span_beyond_x_is_not_valid(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 7))
        omega = avoided_classes(occupancy(IntegerSet([5, 104]), ps))
        assert large_sieve_bound(omega, 100, 7).valid  # 100 integers 5..104
        rep = large_sieve_bound(omega, 99, 7)
        assert not rep.valid and not rep.hypotheses_ok
        assert rep.reason == "the set does not lie in an interval of length x"

    def test_omega_equals_p_rejected(self):
        with pytest.raises(DomainError):
            large_sieve_bound(OccupancyProfile({3: 3}), 100, 5)

    def test_denominator_work_budget(self, table_1e4, monkeypatch):
        # the 31 primes up to 127, every squarefree q <= Q counted by the walk itself
        primes = table_1e4.primes_between(1, 127).tolist()
        omega = OccupancyProfile({p: 1 for p in primes})
        for q_limit in (1, 100, 5000, 10**6):
            count = sum(1 for _ in arith.lattice(primes, q_limit, None, lambda s, p: s))
            monkeypatch.setattr(sieves, "ENTRY_CAP", count)
            rep = large_sieve_bound(omega, 10**6, q_limit)
            want = arith.lattice_sum(primes, {p: 1 / (p - 1) for p in primes}, q_limit)
            assert rep.denominator_L == want
            # one q more than the cap is refused, by the walk
            monkeypatch.setattr(sieves, "ENTRY_CAP", count - 1)
            with pytest.raises(CapacityError, match=f"more than {count - 1} squarefree q"):
                large_sieve_bound(omega, 10**6, q_limit)
        # before the walk: the 1 + 31 + 465 products of at most two primes are all
        # at most 127^2 = Q, past a cap of 496; the walk refuses a cap of 497
        for cap, walked in ((496, False), (497, True)):
            monkeypatch.setattr(sieves, "ENTRY_CAP", cap)
            steps = []
            monkeypatch.setattr(sieves, "lattice", lambda *a, **k: steps.append(1) or
                                arith.lattice(*a, **k))
            with pytest.raises(CapacityError, match=f"more than {cap} squarefree q"):
                large_sieve_bound(omega, 10**6, 127**2)
            assert bool(steps) == walked
            monkeypatch.undo()
        # a huge Q over the 4203 primes to 40000 is refused at once
        everything = table_1e4.primes.tolist()
        with pytest.raises(CapacityError, match="squarefree q"):
            large_sieve_bound(OccupancyProfile({p: 1 for p in everything}), 10**6, 10**400)

    def test_monotone_in_omega(self):
        rng = random.Random(5)
        for _ in range(60):
            q_limit = rng.randrange(3, 32)
            omega = {
                p: rng.randrange(1, p)
                for p in (2, 3, 5, 7, 11, 13)
                if p <= q_limit and rng.random() < 0.7
            }
            if not omega:
                continue
            x = rng.randrange(100, 10**4)
            base = large_sieve_bound(OccupancyProfile(omega), x, q_limit)
            p = rng.choice(sorted(omega))
            if omega[p] + 1 >= p:
                continue
            omega[p] += 1
            after = large_sieve_bound(OccupancyProfile(omega), x, q_limit)
            assert after.denominator_L >= base.denominator_L - 1e-12


class TestSelberg:
    def test_empty_prime_set(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        rep = selberg_bound(range(1, 101), ps, [0], OccupancyProfile({}), 10)
        assert rep.bound == 100.0
        assert rep.sifted_count == 100

    def test_coprimality_instance(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(10, 31))
        omega = OccupancyProfile({p: 1.0 for p in ps.primes().tolist()})
        rep = selberg_bound(range(1, 1001), ps, [0], omega, 31)
        assert rep.valid
        assert rep.bound >= rep.sifted_count
        # oracle for the sifted count: integers coprime to 11..31
        direct = sum(
            1
            for n in range(1, 1001)
            if all(n % p for p in (11, 13, 17, 19, 23, 29, 31))
        )
        assert rep.sifted_count == direct

    def test_hit_masks_past_the_cap_are_refused(self, table_1e4, monkeypatch):
        # the 7 primes of (10, 31], all up to Q^2: one 20-byte hit mask each
        ps = PrimeSubset(table_1e4, Interval(10, 31))
        omega = OccupancyProfile({p: 1.0 for p in ps.primes().tolist()})
        args = (range(1, 21), ps, [0], omega, 31)
        monkeypatch.setattr(sieves, "MEMORY_CAP", 7 * 20)
        assert selberg_bound(*args).sifted_count == 16  # all but 11, 13, 17, 19
        monkeypatch.setattr(sieves, "MEMORY_CAP", 7 * 20 - 1)
        monkeypatch.setattr(sieves, "shift_class_hits", None)  # refused before any mask
        with pytest.raises(CapacityError, match="Selberg hit masks for 7 primes x 20 values"):
            selberg_bound(*args)

    def test_smooth_set_two_shifts(self, table_1e4):
        from sumsieve.smooth import enumerate_smooth

        c_set = IntegerSet(enumerate_smooth(10**4, 7).tolist())
        ps = PrimeSubset(table_1e4, Interval(100, 200))
        omega_vals = {}
        for p in ps.primes().tolist():
            omega_vals[p] = min(2.0 * p / (p - 1), p - 1e-9)
        rep = selberg_bound(c_set, ps, [0, 2], OccupancyProfile(omega_vals), 141)
        assert rep.bound >= rep.sifted_count
        assert rep.main_term is not None and rep.remainder is not None

    def test_randomised_soundness_with_real_omegas(self, table_1e4):
        rng = random.Random(6)
        for _ in range(60):
            size = rng.randrange(100, 1500)
            start = rng.randrange(1, 3000)
            c_set = IntegerSet(range(start, start + size))
            k = rng.randrange(1, 5)
            shifts = IntegerSet(rng.sample(range(0, start + size), k))
            lo = rng.randrange(5, 80)
            ps = PrimeSubset(table_1e4, Interval(lo, lo + rng.randrange(20, 150)))
            plist = ps.primes().tolist()
            if not plist:
                continue
            omega = OccupancyProfile(
                {p: rng.uniform(0.0, min(p - 1e-9, 3.0 * k)) for p in plist}
            )
            rep = selberg_bound(c_set, ps, shifts, omega, rng.randrange(2, 20))
            assert rep.bound >= rep.sifted_count - 1e-6


class TestInverseSieve:
    def test_empty_window_vacuous(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        rep = inverse_sieve_lower_bound(IntegerSet([1, 2]), ps, 50, 100)
        assert rep.lower <= 0
        assert rep.lhs == 0.0

    def test_pair_example(self, table_1e6):
        rep = inverse_sieve_lower_bound(
            IntegerSet([1, 2]), all_primes(table_1e6), 100, 100
        )
        assert rep.lhs >= rep.lower - 1e-12
        # both elements distinct mod every window prime
        assert rep.lhs == pytest.approx(2 * rep.recip_sum, rel=1e-12)

    def test_randomised(self, table_1e6):
        rng = random.Random(7)
        strengthened_seen = 0
        for _ in range(150):
            x = rng.randrange(100, 10**4)
            k = rng.randrange(2, 12)
            a = IntegerSet(rng.sample(range(1, x + 1), k))
            y = rng.uniform(10, 5000)
            kind = rng.randrange(3)
            if kind == 0:
                ps = all_primes(table_1e6)
            elif kind == 1:
                ps = PrimeSubset(table_1e6, ResidueClass(rng.choice([1, 3]), 4))
            else:
                ps = PrimeSubset(table_1e6, Interval(y / 4, y * 2))
            rep = inverse_sieve_lower_bound(a, ps, y, x)
            assert rep.lhs >= rep.lower - 1e-9
            assert rep.lhs >= rep.base_lower - 1e-9
            if rep.strengthened:
                strengthened_seen += 1
                assert rep.lhs >= (len(a) / 2) * rep.recip_sum - 1e-9
        assert strengthened_seen > 0

    def test_validation(self, table_1e4):
        with pytest.raises(DomainError):
            inverse_sieve_lower_bound(IntegerSet([1]), all_primes(table_1e4), 50, 100)
        with pytest.raises(DomainError):
            inverse_sieve_lower_bound(IntegerSet([1, 2]), all_primes(table_1e4), 5, 100)


def scan_deviation(values, d) -> float:
    """The one-modulus scan the grouped kernel replaced: max over the a mod d
    coprime to d of |#{v : v = a mod d} - #values/phi(d)|."""
    counts = np.bincount(values % d, minlength=d)
    reduced = np.gcd(np.arange(d), d) == 1
    return float(np.abs(counts[reduced] - values.size / int(np.count_nonzero(reduced))).max())


def scan_sum(values, primes, d_bound, base, work_cap=arith.MODULUS_WORK_CAP):
    """discrepancy_sum by one scan per modulus: (total, rows), or on a refusal
    ("refused", message, partial sum, rows so far, the refused modulus)."""
    total, rows, spent = 0.0, [], 0
    for d, factors in arith.lattice(primes, d_bound, (), lambda f, p: f + (p,)):
        if d == 1:
            continue
        spent += d + values.size
        if spent > work_cap or d * arith._RESIDUE_BYTES > arith.MEMORY_CAP:
            message = ("modulus enumeration budget exceeded" if spent > work_cap
                       else f"the residue tables of modulus {d} would pass the memory cap")
            return "refused", message, total, rows, d
        dev = scan_deviation(values, d)
        weight = primes_module._power(base, len(factors))
        term = weight * dev if dev else 0.0
        total += term
        rows.append(arith.DiscrepancyBreakdown(d, factors, weight, dev, term))
    return total, rows


def exact(result):
    """A result with every float as float.hex, its tuples and lists as tuples."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, (tuple, list)):
        return tuple(exact(x) for x in result)
    return result


def refusal(run):
    """The CapacityError of run(), in scan_sum's form."""
    with pytest.raises(CapacityError) as err:
        run()
    e = err.value
    return "refused", str(e), e.partial_sum, e.partial_breakdown, e.last_d


@pytest.fixture
def groups(monkeypatch):
    """The groups of moduli the kernel scans, in order, with the dtype of their rows."""
    seen = []
    scan = arith._max_deviations
    monkeypatch.setattr(arith, "_max_deviations",
                        lambda v, moduli: seen.append((list(moduli), v.dtype)) or scan(v, moduli))
    return seen


class TestDiscrepancySum:
    VALUES = np.arange(1, 3000, 2, dtype=np.int64)
    # preorder of the squarefree d <= 200 over these primes:
    # 3, 15, 105, 165, 195, 21, 33, 39, 5, 35, 55, 65, 7, 77, 91, 11, 143, 13
    PRIMES = [3, 5, 7, 11, 13]

    def run(self, **kwargs):
        return sieves.discrepancy_sum(self.VALUES, self.PRIMES, 200, 2.0, **kwargs)

    @pytest.fixture
    def scanned(self, monkeypatch):
        """The moduli the kernel scans, in order: each group's in turn."""
        seen = []
        scan = arith._max_deviations
        monkeypatch.setattr(
            arith, "_max_deviations", lambda v, moduli: seen.extend(moduli) or scan(v, moduli)
        )
        return seen

    def test_reduced_residues_mask_is_the_gcd_test(self):
        for d in [*range(1, 400), 2 * 3 * 5 * 7 * 11 * 13, 2**12, 3**7 * 5, 9973 * 3]:
            expected = np.gcd(np.arange(d, dtype=np.int64), d) == 1
            assert np.array_equal(reduced_residues_mask(d), expected), d

    def test_weights_past_the_float_range(self):
        # every reduced residue mod 15 once: no modulus deviates, and the
        # weight of d = 15, 1e200^2, passes the float range; one more value
        # makes d = 15 deviate
        values = np.array([1, 2, 4, 7, 8, 11, 13, 14], dtype=np.int64)
        total, rows = sieves.discrepancy_sum(values, [3, 5], 15, 1e200)
        assert [(r.d, r.weight, r.term) for r in rows] == [
            (3, 1e200, 0.0), (15, math.inf, 0.0), (5, 1e200, 0.0)]
        assert total == 0.0
        total, rows = sieves.discrepancy_sum(np.append(values, 16), [3, 5], 15, 1e200)
        assert rows[1].term == math.inf and total == math.inf

    def test_infinite_base(self):
        # a base past the float range makes every weight inf; a modulus with
        # no deviation still adds 0, never inf * 0 = NaN
        values = np.array([1, 2, 4, 7, 8, 11, 13, 14], dtype=np.int64)
        total, rows = sieves.discrepancy_sum(values, [3, 5], 15, math.inf)
        assert [(r.d, r.weight, r.term) for r in rows] == [
            (3, math.inf, 0.0), (15, math.inf, 0.0), (5, math.inf, 0.0)]
        assert total == 0.0
        total, rows = sieves.discrepancy_sum(np.append(values, 16), [3, 5], 15, math.inf)
        assert [r.term for r in rows] == [math.inf] * 3 and total == math.inf
        assert not any(math.isnan(v) for r in rows for v in (r.weight, r.term))

    def test_rows_in_preorder_with_weights_base_to_the_omega(self):
        total, rows = self.run()
        assert [r.d for r in rows] == [
            3, 15, 105, 165, 195, 21, 33, 39, 5, 35, 55, 65, 7, 77, 91, 11, 143, 13
        ]
        expected = 0.0
        for r in rows:
            assert math.prod(r.factors) == r.d and r.weight == 2.0 ** len(r.factors)
            assert r.max_deviation == scan_deviation(self.VALUES, r.d)
            expected += r.weight * r.max_deviation
        assert total == expected

    def test_work_cap_counts_d_plus_values_before_each_scan(self, scanned):
        total, rows = self.run()
        work = sum(r.d + self.VALUES.size for r in rows)
        assert self.run(work_cap=work) == (total, rows)
        scanned.clear()
        with pytest.raises(CapacityError, match="budget") as err:
            self.run(work_cap=work - 1)
        assert scanned == [r.d for r in rows[:-1]]
        assert err.value.last_d == 13 and err.value.partial_breakdown == rows[:-1]
        partial = 0.0
        for r in rows[:-1]:
            partial += r.term
        assert err.value.partial_sum == partial

    def test_tables_past_the_memory_cap_raise_before_the_scan(self, monkeypatch, scanned):
        total, rows = self.run()
        scanned.clear()
        monkeypatch.setattr(arith, "MEMORY_CAP", 104 * arith._RESIDUE_BYTES)
        with pytest.raises(CapacityError, match="memory cap") as err:
            self.run()
        assert scanned == [3, 15]
        assert err.value.last_d == 105 and err.value.partial_breakdown == rows[:2]
        assert err.value.partial_sum == rows[0].term + rows[1].term
        # tables of exactly the cap fit
        monkeypatch.setattr(arith, "MEMORY_CAP", 195 * arith._RESIDUE_BYTES)
        assert self.run() == (total, rows)


# primes and the odd squarefree composites over them share groups
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


class TestGroupedKernel:
    """discrepancy_sum against scan_sum, bit for bit: total and every row
    field, and at a refusal the partial sum, the rows so far and last_d."""

    @staticmethod
    def counted(values, moduli):
        """The bytes a group counts against its budget."""
        per_value = 12 if values.min(initial=0) >= 0 and values.max(initial=0) < 2**31 else 8
        return sum(values.size * per_value + d * arith._RESIDUE_BYTES for d in moduli)

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(0, 5000), max_size=400).map(
            lambda v: np.array(sorted(v), dtype=np.int64)),
        primes=st.sets(st.sampled_from(SMALL_PRIMES), max_size=8).map(sorted),
        d_bound=st.integers(1, 3000),
        base=st.sampled_from([1.0, 2.0, 3.5, 1e200]),
        group_bytes=st.sampled_from([1, 2**12, 2**15, 2**20]),
    )
    def test_matches_the_per_modulus_scan(self, values, primes, d_bound, base, group_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_GROUP_BYTES", group_bytes)
            got = arith.discrepancy_sum(values, primes, d_bound, base)
        assert exact(got) == exact(scan_sum(values, primes, d_bound, base))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(0, 3000), min_size=1, max_size=200).map(
            lambda v: np.array(v, dtype=np.int64)),
        primes=st.sets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=7).map(sorted),
        d_bound=st.integers(2, 3000),
        work_cap=st.integers(0, 60000),
        memory_cap=st.integers(0, 3000 * 32),
        group_bytes=st.sampled_from([1, 2**12, 2**15, 2**20]),
    )
    def test_refusals_match(self, values, primes, d_bound, work_cap, memory_cap, group_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_GROUP_BYTES", group_bytes)
            mp.setattr(arith, "MEMORY_CAP", memory_cap)
            expected = scan_sum(values, primes, d_bound, 3.0, work_cap)

            def run():
                return arith.discrepancy_sum(values, primes, d_bound, 3.0, work_cap=work_cap)

            got = refusal(run) if expected[0] == "refused" else run()
        assert exact(got) == exact(expected)

    def test_no_modulus_at_or_past_a_refusal_is_scanned(self, groups):
        values = np.arange(0, 5000, 7, dtype=np.int64)
        for cap in (1, 5000, 20000, 60000):
            groups.clear()
            expected = scan_sum(values, SMALL_PRIMES[1:], 2000, 2.0, cap)
            got = refusal(lambda: arith.discrepancy_sum(values, SMALL_PRIMES[1:], 2000, 2.0,
                                                        work_cap=cap))
            assert [d for moduli, _ in groups for d in moduli] == [r.d for r in expected[3]]
            assert exact(got) == exact(expected)

    def test_empty_values(self, groups):
        values = np.array([], dtype=np.int64)
        total, rows = arith.discrepancy_sum(values, [3, 5, 7], 105, 2.0)
        assert total == 0.0 and [r.max_deviation for r in rows] == [0.0] * 7
        assert exact((total, rows)) == exact(scan_sum(values, [3, 5, 7], 105, 2.0))
        assert groups[0][1] == np.int64

    def test_a_single_value(self):
        for v in (0, 1, 6, 35, 2**31 - 1, 2**31, 2**45 + 3):
            values = np.array([v], dtype=np.int64)
            got = arith.discrepancy_sum(values, [2, 3, 5, 7], 210, 2.0)
            assert exact(got) == exact(scan_sum(values, [2, 3, 5, 7], 210, 2.0)), v

    def test_values_past_int32_take_int64_rows(self, groups):
        below = np.arange(2**31 - 600, 2**31, 3, dtype=np.int64)
        at = np.arange(2**31 - 2100, 2**31 + 1, 7, dtype=np.int64)
        above = np.arange(2**31 - 300, 2**31 + 300, 3, dtype=np.int64)
        huge = np.array([2**40 + k * k for k in range(300)], dtype=np.int64)
        for values, dtype in ((below, np.int32), (at, np.int64), (above, np.int64),
                              (huge, np.int64)):
            groups.clear()
            got = arith.discrepancy_sum(values, [3, 5, 7, 11, 13], 1000, 2.0)
            assert exact(got) == exact(scan_sum(values, [3, 5, 7, 11, 13], 1000, 2.0))
            assert {dt for _, dt in groups} == {np.dtype(dtype)}

    def test_values_sharing_a_prime_with_the_modulus(self, groups):
        # mod 15: 30 values in class 0, none in 3, 5, 6, 9, 10 or 12, two in
        # each reduced class; x = 46/8 and only the reduced classes count, so
        # neither the full class nor the empty ones set the deviation
        reduced = [a + 15 * j for a in (1, 2, 4, 7, 8, 11, 13, 14) for j in (0, 1)]
        values = np.array(sorted([15 * k for k in range(30)] + reduced), dtype=np.int64)
        total, rows = arith.discrepancy_sum(values, [3, 5], 15, 1.0)
        assert [moduli for moduli, _ in groups] == [[3, 15, 5]]
        assert rows[1].d == 15 and rows[1].max_deviation == 46 / 8 - 2
        assert exact((total, rows)) == exact(scan_sum(values, [3, 5], 15, 1.0))

    def test_primes_and_composites_share_a_group(self, groups):
        values = np.arange(1, 2000, dtype=np.int64) ** 2 % 100003
        total, rows = arith.discrepancy_sum(values, [3, 5, 7, 11, 13, 17], 3000, 2.0)
        omegas = {r.d: len(r.factors) for r in rows}
        assert len(groups) > 1
        assert all(min(omegas[d] for d in moduli) == 1 < max(omegas[d] for d in moduli)
                   for moduli, _ in groups)
        assert exact((total, rows)) == exact(scan_sum(values, [3, 5, 7, 11, 13, 17], 3000, 2.0))

    def test_a_group_ends_exactly_at_its_budget(self, monkeypatch, groups):
        values = np.arange(0, 3000, 5, dtype=np.int64)
        moduli = [d for d, _ in arith.lattice([3, 5, 7, 11], 1155, (), lambda f, p: f + (p,))][1:]
        fits = self.counted(values, moduli[:4])
        for budget, first in ((fits, 4), (fits - 1, 3), (fits + 1, 4)):
            monkeypatch.setattr(arith, "_GROUP_BYTES", budget)
            groups.clear()
            got = arith.discrepancy_sum(values, [3, 5, 7, 11], 1155, 2.0)
            assert groups[0][0] == moduli[:first]
            assert exact(got) == exact(scan_sum(values, [3, 5, 7, 11], 1155, 2.0))

    def test_no_group_passes_its_budget_or_the_cap(self, monkeypatch, groups):
        values = np.arange(0, 20000, 3, dtype=np.int64)
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        expected = exact(scan_sum(values, primes, 6000, 2.0))
        for cap in (2**18, 10**6, arith.MEMORY_CAP):
            monkeypatch.setattr(arith, "MEMORY_CAP", cap)
            groups.clear()
            assert exact(arith.discrepancy_sum(values, primes, 6000, 2.0)) == expected
            budget = min(arith._GROUP_BYTES, cap)
            assert any(len(moduli) > 1 for moduli, _ in groups)
            for moduli, _ in groups:
                assert len(moduli) == 1 or self.counted(values, moduli) <= budget

    def test_the_peak_stays_within_the_counted_bytes(self, monkeypatch):
        # masks not cached: their bytes count too; past the rows and tables,
        # a group holds a few arrays and lists of one entry per modulus
        rng = np.random.default_rng(7)
        for values, moduli in (
            (np.sort(rng.integers(0, 10**6, 20000)), [3, 5, 7, 15, 21, 35, 105]),
            (np.sort(rng.integers(0, 2**40, 20000)), [3, 5, 7, 15, 21, 35, 105]),
            (np.array([5]), [9973, 9967, 9949, 3 * 5 * 7 * 11 * 13, 2 * 3 * 5 * 7 * 11]),
            (np.array([5]), [30011]),
        ):
            rows = values.astype(np.int32 if values.max() < 2**31 else np.int64)
            monkeypatch.setattr(primes_module, "_CACHE", primes_module._ByteCache())
            tracemalloc.start()
            try:
                arith._max_deviations(rows, moduli)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= self.counted(values, moduli) + 2**12, (values.size, moduli)


def make_scaled_context(table, rng, x=10**4, set_size=1500, k=3):
    """A scaled-profile context with non-empty P0* and k within range."""
    modulus, residue = rng.choice([(4, 1), (4, 3), (3, 1)])
    p0 = PrimeSubset(table, ResidueClass(residue, modulus))
    banned = frozenset(p0.primes_in(1, x).tolist())
    carrier = enumerate_q(PrimeSubset(table, Excluding(banned)), x)
    size = min(set_size, len(carrier))
    s = IntegerSet(rng.sample(carrier.elements, size))
    c = density_ratio_c(p0, x, window_floor_exponent=0.3)
    sigma = len(s) / x
    k_target = rng.uniform(max(4 * k, 20), 60)
    star_min = rng.uniform(4 * k + 1, min(55.0, k_target * 1.8))
    profile = scaled(
        k_coefficient=k_target * sigma * c * c / math.log(x) ** 2,
        star_exponent=math.log(star_min) / math.log(k_target),
        c_floor_exponent=0.3,
    )
    ctx = build_context(s, s, p0, x, profile)
    return ctx, s


class TestSmallK:
    def test_empty_star_invalid(self, table_1e6):
        rng = random.Random(8)
        ctx, s = make_scaled_context(table_1e6, rng)
        strict_ctx = build_context(s, s, ctx.ps, ctx.x, STRICT)
        if strict_ctx.ps_star.is_empty():
            rep = prop_smallkscs_bound(s, [0, 1], strict_ctx)
            assert not rep.valid
            assert "P0*" in rep.reason

    def test_scs_scaled_soundness(self, table_1e6):
        rng = random.Random(9)
        hits = 0
        for _ in range(25):
            k = rng.randrange(2, 6)
            ctx, s = make_scaled_context(table_1e6, rng, k=k)
            shifts = IntegerSet(rng.sample(range(0, ctx.x), k))
            rep = prop_smallkscs_bound(s, shifts, ctx)
            assert rep.profile == "scaled"
            if rep.valid and rep.hypotheses_ok:
                hits += 1
                assert rep.bound >= rep.sifted_count
        assert hits >= 20

    def test_k_range_enforced(self, table_1e6):
        rng = random.Random(10)
        ctx, s = make_scaled_context(table_1e6, rng)
        with pytest.raises(DomainError):
            prop_smallkscs_bound(s, IntegerSet(range(1000)), ctx)

    def test_bv_scaled_soundness(self, table_1e6):
        rng = random.Random(11)
        hits = 0
        for _ in range(15):
            k = rng.randrange(2, 5)
            ctx, s = make_scaled_context(table_1e6, rng, k=k, set_size=1200)
            shifts = IntegerSet(rng.sample(range(0, ctx.x), k))
            rep = prop_smallkbv_bound(s, shifts, ctx, rng.randrange(40, 70))
            if rep.valid and rep.hypotheses_ok:
                hits += 1
                assert rep.bound >= rep.sifted_count
                assert rep.main_term >= 0 and rep.remainder >= 0
        assert hits >= 10

    def test_bv_rejects_divisible_elements(self, table_1e6):
        rng = random.Random(12)
        ctx, s = make_scaled_context(table_1e6, rng)
        star_primes = ctx.ps_star.primes_in(1, 1000)
        bad = IntegerSet(list(s.elements[:50]) + [int(star_primes[0]) * 2])
        with pytest.raises(DomainError):
            prop_smallkbv_bound(bad, [0, 1], ctx, 50)

    def test_occupancy_deficit_past_its_budget_is_not_valid(self, table_1e6):
        # all shifts agree mod the two least P0* primes, so nu(p) = 1 at both
        ctx, s = make_scaled_context(table_1e6, random.Random(9))
        p1, p2 = ctx.ps_star.primes_in(1, 100).tolist()[:2]
        shifts = [0, p1 * p2, 2 * p1 * p2]
        assert 3 * max(4 * p1, p2) <= ctx.x
        for rep in (prop_smallkscs_bound(s, shifts, ctx), prop_smallkbv_bound(s, shifts, ctx, 50)):
            assert rep.hypotheses == {
                "star_primes_at_least_4k": True,
                "occupancy_deficit_within_budget": False,
            }
            assert not rep.valid
            assert rep.reason == "hypotheses not met: occupancy_deficit_within_budget"

    def test_zero_shift_residue_allowed(self, table_1e6):
        # shifts hitting 0 mod a star prime only shrink the nonzero occupancy
        rng = random.Random(13)
        ctx, s = make_scaled_context(table_1e6, rng, k=3)
        p = int(ctx.ps_star.primes_in(1, 100)[0])
        shifts = IntegerSet([0, p, 2 * p])
        rep = prop_smallkbv_bound(s, shifts, ctx, 60)
        if rep.valid and rep.hypotheses_ok:
            assert rep.bound >= rep.sifted_count


class TestClearedSet:
    """prop_smallkbv_bound scans S for P0* primes in the factor table of P0,
    and calls divisibility_hits for the witnesses only when the table shows a
    hit."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = sieves.divisibility_hits

        def spy(values, ps, **kw):
            calls.append(ps)
            return real(values, ps, **kw)

        monkeypatch.setattr(sieves, "divisibility_hits", spy)
        return calls

    def test_only_the_cleared_set_skips_the_scan(self, table_1e6, scans):
        ctx, s = make_scaled_context(table_1e6, random.Random(12))
        rep = prop_smallkbv_bound(s, [0, 1], ctx, 50)
        prop_smallkbv_bound(IntegerSet(s.elements), [0, 1], ctx, 50)  # an equal set
        other = IntegerSet(s.elements[1:])  # another clean set
        prop_smallkbv_bound(other, [0, 1], ctx, 50)
        assert scans == []
        # a hand-built context, and one made by dataclasses.replace, read the same table
        fields = {f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx) if f.init}
        for hand in (GenThmContext(**fields), dataclasses.replace(ctx)):
            assert prop_smallkbv_bound(s, [0, 1], hand, 50).to_dict() == rep.to_dict()
        assert scans == []
        # a P0* prime in S shows in the table: the scan names the witnesses
        star_prime = int(ctx.ps_star.primes_in(1, 1000)[0])
        with pytest.raises(DomainError, match=re.escape(f"e.g. {[(2 * star_prime, star_prime)]}")):
            prop_smallkbv_bound(IntegerSet([*s.elements[:50], 2 * star_prime]), [0, 1], ctx, 50)
        assert scans == [ctx.ps_star]

    def test_another_set_raises_the_same_pairs(self, table_1e6):
        ctx, s = make_scaled_context(table_1e6, random.Random(12))
        star_primes = ctx.ps_star.primes_in(1, 1000).tolist()
        bad = IntegerSet(list(s.elements[:50]) + [p * 2 for p in star_primes[:4]])
        pairs, _ = primes_module.divisibility_hits(bad.array(), ctx.ps_star)
        assert pairs[:3] == [(p * 2, p) for p in star_primes[:3]]
        with pytest.raises(DomainError, match=re.escape(f"e.g. {pairs[:3]}")):
            prop_smallkbv_bound(bad, [0, 1], ctx, 50)

    def test_a_p0_star_not_built_from_p0_scans_the_cleared_set(self, table_1e6):
        # a P0* that is no subset of the P0 that cleared S must be scanned,
        # in a hand-built context and in one whose ps_star was replaced
        ctx, s = make_scaled_context(table_1e6, random.Random(12))
        loose = PrimeSubset(table_1e6, Interval(1, 100))
        pairs, _ = primes_module.divisibility_hits(s.array(), loose)
        assert pairs
        fields = {f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx) if f.init}
        ctx.ps_star = loose
        for other in (GenThmContext(**{**fields, "ps_star": loose}), ctx):
            with pytest.raises(DomainError, match=re.escape(f"e.g. {pairs[:3]}")):
                prop_smallkbv_bound(s, [0, 1], other, 50)


class TestMiddleK:
    def _sample_set(self, rng, x, size):
        return IntegerSet(sorted(rng.sample(range(1, x), size)))

    def test_ordering_violation_raises(self, table_1e4):
        ps = all_primes(table_1e4)
        with pytest.raises(DomainError):
            middlek_bound(IntegerSet([1, 2]), [0, 1], ps, 10**6, 30, 90)

    def test_full_k_branch(self, table_1e4):
        rng = random.Random(14)
        x = 10**10
        ps = PrimeSubset(table_1e4, Interval(100, 450))
        s = self._sample_set(rng, x, 5000)
        shifts = IntegerSet(rng.sample(range(0, x), 2))
        rep = middlek_bound(
            s, shifts, ps, x, 200, 450, profile=scaled(window_coefficient=0.5)
        )
        assert rep.branch == "full-k"
        assert rep.hypotheses_ok
        assert rep.bound >= rep.sifted_count

    def test_reduced_k_branch(self, table_1e4):
        rng = random.Random(15)
        x = 10**10
        ps = PrimeSubset(table_1e4, Interval(100, 450))
        s = self._sample_set(rng, x, 5000)
        shifts = IntegerSet(rng.sample(range(0, x), 50))
        rep = middlek_bound(
            s, shifts, ps, x, 200, 450, profile=scaled(window_coefficient=0.5)
        )
        assert rep.branch == "reduced-k"
        assert rep.bound >= rep.sifted_count

    def test_threshold_failure_invalid(self, table_1e4):
        rng = random.Random(16)
        x = 10**10
        # a window with almost no subset primes
        ps = PrimeSubset(table_1e4, And((Interval(100, 450), ResidueClass(1, 97))))
        s = self._sample_set(rng, x, 100)
        rep = middlek_bound(s, [0, 5], ps, x, 200, 450)
        assert not rep.valid

    def test_set_past_x_is_not_valid(self, table_1e4):
        # the bound counts a sifted subset of [1, x]: S inside it is a hypothesis
        ps = PrimeSubset(table_1e4, Interval(100, 450))
        x = 10**10
        shifts = [0, 2]
        profile = scaled(window_coefficient=0.5)
        inside = middlek_bound([1, 5, 9, x], shifts, ps, x, 200, 450, profile=profile)
        assert inside.valid and inside.hypotheses["set_within_1_to_x"]
        for s in ([1, 5, 9, x + 1], [0, 5, 9]):
            rep = middlek_bound(s, shifts, ps, x, 200, 450, profile=profile)
            assert rep.hypotheses["set_within_1_to_x"] is False
            assert not rep.valid
            assert rep.reason == "hypotheses not met: set_within_1_to_x"

    def test_strict_profile_at_desk_scale_fails_threshold(self, table_1e6):
        rng = random.Random(17)
        x = 10**6
        ps = all_primes(table_1e6)
        s = self._sample_set(rng, x, 2000)
        rep = middlek_bound(s, [0, 7], ps, x, 15, 40, profile=STRICT)
        # strict 8 k log x is unreachable with these tiny windows
        assert rep.branch in (None, "reduced-k")
        assert not rep.valid or not rep.hypotheses_ok



class TestValidity:
    """A report is valid exactly when it gives no reason, and a failed
    hypothesis always gives one."""

    @pytest.fixture(scope="class")
    def contexts(self, table_1e6):
        # the least P0* primes are 19, 23 and 31, 37
        return [make_scaled_context(table_1e6, random.Random(seed)) for seed in (9, 10)]

    @staticmethod
    def _larger(draw, table, contexts):
        a = draw(st.sets(st.integers(0, 300), min_size=1, max_size=40))
        lo = draw(st.integers(1, 80))
        ps = PrimeSubset(table, Interval(lo, lo + draw(st.integers(0, 400))))
        return larger_sieve_bound(occupancy(a, ps), ps, draw(st.integers(1, 400)))

    @staticmethod
    def _large(draw, table, contexts):
        a = draw(st.sets(st.integers(0, 300), min_size=1, max_size=40))
        ps = PrimeSubset(table, Interval(1, draw(st.integers(1, 40))))
        omega = avoided_classes(occupancy(a, ps))
        return large_sieve_bound(omega, draw(st.integers(1, 400)), draw(st.integers(1, 12)))

    @staticmethod
    def _selberg(draw, table, contexts):
        c_set = draw(st.sets(st.integers(0, 500), min_size=1, max_size=40))
        shifts = draw(st.sets(st.integers(0, 50), min_size=1, max_size=4))
        # every prime above 4 misses a class of the shifts: omega(p) < p
        ps = PrimeSubset(table, Interval(4, draw(st.integers(4, 40))))
        return selberg_bound(c_set, ps, shifts, occupancy(shifts, ps), draw(st.integers(1, 8)))

    @staticmethod
    def _small_k(draw, contexts):
        ctx, s = draw(st.sampled_from(contexts))
        p1, p2 = ctx.ps_star.primes_in(1, 100).tolist()[:2]
        step = draw(st.sampled_from([0, p1, p1 * p2]))
        if step == 0:
            return ctx, s, draw(st.sets(st.integers(0, ctx.x), min_size=2, max_size=6))
        return ctx, s, [i * step for i in range(draw(st.integers(2, 6)))]

    @classmethod
    def _smallkscs(cls, draw, table, contexts):
        ctx, s, shifts = cls._small_k(draw, contexts)
        return prop_smallkscs_bound(s, shifts, ctx)

    @classmethod
    def _smallkbv(cls, draw, table, contexts):
        ctx, s, shifts = cls._small_k(draw, contexts)
        return prop_smallkbv_bound(s, shifts, ctx, draw(st.integers(32, 45)))

    @staticmethod
    def _middlek(draw, table, contexts):
        y1 = draw(st.integers(10, 20))
        y2 = draw(st.integers(2 * y1 + 1, 8 * y1))
        x = draw(st.integers((y1 * y2 + 1) ** 2, 10**8))
        s = draw(st.sets(st.integers(1, x), min_size=1, max_size=30))
        shifts = draw(st.sets(st.integers(0, x), min_size=1, max_size=12))
        lo = draw(st.integers(1, y1))
        ps = PrimeSubset(table, Interval(lo, lo + draw(st.integers(y1, 400))))
        w = draw(st.floats(0.01, 2.0))
        profile = draw(st.sampled_from([STRICT, scaled(window_coefficient=w)]))
        return middlek_bound(s, shifts, ps, x, y1, y2, profile=profile)

    @staticmethod
    def _strict_small_k(draw, table, contexts):
        # under the strict constants P0* is empty: the vacuous report
        ctx, s = draw(st.sampled_from(contexts))
        strict_ctx = build_context(s, s, ctx.ps, ctx.x, STRICT)
        assert strict_ctx.ps_star.is_empty()
        return prop_smallkscs_bound(s, [0, 1], strict_ctx)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_valid_is_no_reason(self, table_1e4, contexts, data):
        evaluator = data.draw(st.sampled_from([
            self._larger, self._large, self._selberg, self._smallkscs,
            self._smallkbv, self._middlek, self._strict_small_k,
        ]))
        rep = evaluator(data.draw, table_1e4, contexts)
        assert rep.valid == (rep.reason == "")
        assert rep.hypotheses_ok or not rep.valid
        doc = rep.to_dict()
        assert doc["valid"] == rep.valid and doc["hypotheses_ok"] == rep.hypotheses_ok
