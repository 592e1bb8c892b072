import bisect
import itertools
import math
import random
import re
import types
from operator import add, itemgetter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsieve import arith
from sumsieve.arith import (
    EULER_GAMMA,
    MultiplicativeSpec,
    check_comparison_inequality,
    enumerate_squarefree_supported,
    euler_phi,
    factorize,
    gamma_function,
    lattice,
    lattice_sum,
    mobius,
    restricted_multiplicative_sum,
    tau3,
)
from sumsieve.errors import CapacityError, DomainError
from sumsieve.primes import (
    And,
    Excluding,
    Interval,
    MinValue,
    PrimeSubset,
    PrimeTable,
    ResidueClass,
    all_primes,
    shift_class_hits,
)
from sumsieve.semigroup import enumerate_q
from sumsieve.sieves import OccupancyProfile, large_sieve_bound, selberg_bound
from sumsieve.sumset import IntegerSet


def tau3_by_enumeration(n: int) -> int:
    return sum(
        1
        for u in range(1, n + 1)
        if n % u == 0
        for v in range(1, n // u + 1)
        if (n // u) % v == 0
    )


class TestBasics:
    def test_factorize_reconstructs(self):
        rng = random.Random(1)
        for n in [1, 2, 97, 1024] + [rng.randrange(1, 10**6) for _ in range(200)]:
            factors = factorize(n)
            prod = 1
            prev = 1
            for p, e in factors:
                assert p > prev
                prev = p
                prod *= p**e
            assert prod == n

    def test_mobius_examples(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(30) == -1  # three distinct primes

    def test_mobius_against_sympy(self):
        rng = random.Random(2)
        for n in rng.sample(range(1, 10**5), 300):
            assert mobius(n) == sympy.mobius(n)

    def test_mobius_convolution_identity(self):
        # sum of mu(d) over divisors d of n is the indicator of n = 1
        limit = 10**4
        sums = [0] * (limit + 1)
        for d in range(1, limit + 1):
            mu = mobius(d)
            if mu:
                for m in range(d, limit + 1, d):
                    sums[m] += mu
        assert sums[1] == 1
        assert all(v == 0 for v in sums[2:])

    def test_tau3_examples(self):
        assert tau3(1) == 1
        assert tau3(2) == 3  # (1,1,2), (1,2,1), (2,1,1)
        assert tau3(6) == tau3_by_enumeration(6) == 9

    def test_tau3_is_triple_convolution(self):
        limit = 10**4
        tau2 = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                tau2[m] += 1
        conv = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                conv[m] += tau2[m // d]
        for n in range(1, limit + 1):
            assert tau3(n) == conv[n], f"tau3 mismatch at {n}"

    def test_euler_phi(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == sum(1 for a in range(1, 13) if math.gcd(a, 12) == 1) == 4
        for p in (2, 3, 101, 9973):
            assert euler_phi(p) == p - 1
        rng = random.Random(3)
        for n in rng.sample(range(1, 10**5), 200):
            assert euler_phi(n) == sympy.totient(n)

    def test_gamma(self):
        assert gamma_function(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_function(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_function(5.0) == pytest.approx(24.0, rel=1e-12)
        with pytest.raises(DomainError):
            gamma_function(0.0)

    def test_gamma_past_the_float_range_is_a_domain_error(self):
        # math.gamma raises OverflowError here: Gamma(t) ~ 1/t
        for t in (5e-324, 1e-309, 172.0):
            with pytest.raises(DomainError, match="overflows"):
                gamma_function(t)
        for t in (1e-308, 0.5, 171.5):
            assert gamma_function(t) == math.gamma(t)

    def test_euler_gamma_literal(self):
        # sanity against the standard 15-digit value
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)


class TestSquarefreeEnumeration:
    def test_two_three_support(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(1, 3))
        got = list(enumerate_squarefree_supported(ps, 10))
        assert [q for q, _ in got] == [1, 2, 3, 6]
        assert got[0] == (1, ())
        assert got[-1] == (6, (2, 3))

    def test_empty_support(self, table_1e4):
        ps = PrimeSubset(table_1e4, Interval(0, 1))
        assert [q for q, _ in enumerate_squarefree_supported(ps, 100)] == [1]

    def test_matches_brute_force_filter(self, table_1e6):
        rng = random.Random(4)
        for _ in range(8):
            lo = rng.randrange(2, 200)
            hi = lo + rng.randrange(20, 800)
            bound = rng.randrange(10, 10**5)
            ps = PrimeSubset(table_1e6, Interval(lo, hi))
            got = [q for q, _ in enumerate_squarefree_supported(ps, bound)]
            brute = []
            for q in range(1, bound + 1):
                factors = factorize(q)
                if all(e == 1 for _, e in factors) and all(
                    lo < p <= hi for p, _ in factors
                ):
                    brute.append(q)
            assert got == brute

    def test_ascending_and_unique(self, table_1e6):
        ps = PrimeSubset(table_1e6, Interval(10, 100))
        qs = [q for q, _ in enumerate_squarefree_supported(ps, 10**5)]
        assert qs == sorted(set(qs))


def supported(n: int, primes) -> bool:
    """Marking filter: n is supported on `primes` when dividing them out leaves 1."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def factor_chain_product(n: int, weights) -> float:
    """prod weights[p] over the prime factors of n with multiplicity, ascending."""
    t = 1.0
    for p, e in factorize(n):
        for _ in range(e):
            t *= weights[p]
    return t


def random_prime_lists(rng, count):
    small = [p for p in range(2, 200) if factorize(p) == [(p, 1)]]
    yield [2, 3, 5, 7]
    yield [3, 11, 13, 97]
    for _ in range(count):
        yield sorted(rng.sample(small, rng.randrange(1, 12)))


def factor_tuple(n: int, powers: bool) -> tuple:
    """The prime factors of n, ascending, with multiplicity when `powers`."""
    return tuple(p for p, e in factorize(n) for _ in range(e if powers else 1))


def collect(primes, bound, powers):
    return list(lattice(primes, bound, (), lambda f, p: f + (p,), powers=powers))


_SMALL_PRIMES = [p for p in range(2, 60) if factorize(p) == [(p, 1)]]


class TestLatticeEnumerators:
    def test_squarefree_matches_brute_force_in_preorder(self):
        rng = random.Random(21)
        for primes in random_prime_lists(rng, 30):
            for bound in (1, 2, rng.randrange(1, 300), rng.randrange(300, 5000)):
                walk = collect(primes, bound, powers=False)
                brute = [
                    d for d in range(1, bound + 1) if mobius(d) != 0 and supported(d, primes)
                ]
                assert sorted(d for d, _ in walk) == brute
                for d, factors in walk:
                    assert factors == factor_tuple(d, powers=False)
                tuples = [factors for _, factors in walk]
                assert tuples == sorted(tuples)  # preorder = lexicographic order

    def test_smooth_matches_marking_filter_in_preorder(self):
        rng = random.Random(22)
        for primes in random_prime_lists(rng, 30):
            for bound in (1, 2, rng.randrange(1, 300), rng.randrange(300, 20000)):
                walk = list(lattice(primes, bound, "root", lambda s, p: s, powers=True))
                assert {s for _, s in walk} <= {"root"}
                values = [n for n, _ in walk]
                assert sorted(values) == [n for n in range(1, bound + 1) if supported(n, primes)]
                factorisations = [tuple(factorize(n)) for n in values]
                assert factorisations == sorted(factorisations)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=8, unique=True),
           st.integers(-3, 3000))
    def test_power_states_are_factorisations(self, primes, bound):
        primes.sort()
        walk = collect(primes, bound, powers=True)
        for n, factors in walk:
            assert factors == factor_tuple(n, powers=True)
        assert sorted(n for n, _ in walk) == [n for n in range(1, bound + 1) if supported(n, primes)]

    def test_bound_equal_to_a_product(self):
        primes = [2, 3, 5, 7]
        step = lambda r, p: r + 1  # noqa: E731
        for powers in (False, True):
            assert 210 in dict(lattice(primes, 210, 0, step, powers=powers))
            assert 210 not in dict(lattice(primes, 209, 0, step, powers=powers))
            assert dict(lattice(primes, 210, 0, step, powers=powers))[210] == 4
            assert (2**10 in dict(lattice(primes, 2**10, 0, step, powers=powers))) == powers
            assert 2**10 not in dict(lattice(primes, 2**10 - 1, 0, step, powers=powers))
        assert dict(lattice(primes, 2**10, 0, step, powers=True))[2**10] == 10

    def test_small_bounds_and_empty_prime_list(self):
        for powers in (False, True):
            for bound in (0, -3, 0.5):
                assert collect([2, 3], bound, powers) == []
                assert lattice_sum([2, 3], {2: 1.0, 3: 1.0}, bound, powers=powers) == 0.0
            assert list(lattice([], 100, "root", lambda s, p: s, powers=powers)) == [(1, "root")]
            assert lattice_sum([], {}, 100, powers=powers) == 1.0
            assert list(lattice([2, 3], 1, 0, lambda r, p: r + 1, powers=powers)) == [(1, 0)]

    def test_weighted_path_products(self):
        rng = random.Random(23)
        for primes in random_prime_lists(rng, 10):
            weights = {p: rng.uniform(0.01, 3.0) for p in primes}
            for powers in (False, True):
                total = 0.0
                walk = lattice(primes, 5000, 1.0, lambda t, p: t * weights[p], powers=powers)
                for n, t in walk:
                    assert t == factor_chain_product(n, weights)  # same chain, same float
                    total += t
                assert lattice_sum(primes, weights, 5000, powers=powers) == total

    def test_squarefree_walk_is_lazy(self):
        for powers in (False, True):
            steps = []

            def step(state, p):
                steps.append(p)
                return state

            walk = lattice([2, 3, 5, 7, 11, 13], 10**6, None, step, powers=powers)
            assert [d for d, _ in itertools.islice(walk, 4)] == [1, 2, 6, 30]
            assert steps == [2, 3, 5]


def old_lattice_sum(primes, weights, bound, powers=False) -> float:
    """lattice_sum's loop before the walk sum, with no cap."""
    total = 0.0
    for _, term in lattice(primes, bound, 1.0, lambda t, p: t * weights[p], powers=powers):
        total += term
    return total


def old_denominator(omega, primes, q_limit) -> float:
    """The sieve denominator L's loop before the walk sum, with no cap."""
    support = [p for p in primes if omega.get(p) > 0 and p <= q_limit]
    weights = {p: omega.get(p) / (p - omega.get(p)) for p in support}
    total = 0.0
    for _, term in lattice(support, q_limit, 1.0, lambda t, p: t * weights[p]):
        total += term
    return total


def old_selberg_remainder(c_arr, shift_arr, plist, omega, q_limit) -> float:
    """Selberg's remainder loop before the walk sum, with no cap: every prime of
    the subset is passed to the walk, which takes none past Q^2."""
    d_bound = q_limit**2
    hit_masks = {p: shift_class_hits(c_arr, shift_arr, p) for p in plist if p <= d_bound}

    def step(state, p):
        mask, density, r = state
        hits = hit_masks[p] if mask is None else mask & hit_masks[p]
        return hits, density * omega.get(p) / p, r + 1

    remainder = 0.0
    for d, (mask, density, r) in lattice(plist, d_bound, (None, 1.0, 0), step):
        if d > 1:
            remainder += (3**r) * abs(int(mask.sum()) - c_arr.size * density)
    return remainder


def _report(value):
    return value if isinstance(value, float) else value.to_dict()


def _lookup(entries):
    """What the references read of a profile: omega.get(p), 0.0 at a prime it leaves out."""
    return types.SimpleNamespace(get=lambda p: entries.get(p, 0.0))


class TestWalkSum:
    # each caller of the walk sum: its refusal text and a run over the lattice
    # of `primes` (an interval's primes) up to `bound` (a square for Selberg's d)
    CALLERS = {
        "lattice_sum": (
            "the weighted lattice sum runs over more than {} n",
            lambda table, primes, bound: lattice_sum(primes, {p: 1 / p for p in primes}, bound)),
        "denominator": (
            "the sieve denominator sums over more than {} squarefree q",
            lambda table, primes, bound: large_sieve_bound(
                OccupancyProfile({p: 1 for p in primes}), 10**6, bound)),
        "selberg": (
            "Selberg's remainder sums over more than {} squarefree d",
            lambda table, primes, bound: selberg_bound(
                IntegerSet(range(1, 200)), PrimeSubset(table, Interval(primes[0] - 1, primes[-1])),
                (0, 2), OccupancyProfile({p: 1 for p in primes}), math.isqrt(bound))),
    }

    def test_lattice_sum_bits(self):
        rng = random.Random(31)
        for primes in random_prime_lists(rng, 40):
            weights = {p: rng.choice([0.0, rng.uniform(0.01, 3.0)]) for p in primes}
            for powers in (False, True):
                bound = rng.randrange(-2, 5000)
                got = lattice_sum(primes, weights, bound, powers=powers)
                assert got.hex() == old_lattice_sum(primes, weights, bound, powers).hex()

    def test_denominator_bits(self, table_1e4):
        rng = random.Random(32)
        small = table_1e4.primes_between(1, 200).tolist()
        for _ in range(60):
            primes = sorted(rng.sample(small, rng.randrange(0, 20)))
            entries = {p: rng.randrange(0, p) for p in primes}
            q_limit = rng.randrange(1, 3000)
            got = large_sieve_bound(OccupancyProfile(entries), 10**6, q_limit).denominator_L
            assert got.hex() == old_denominator(_lookup(entries), primes, q_limit).hex()

    def test_selberg_remainder_bits(self, table_1e4):
        rng = random.Random(33)
        for _ in range(40):
            ps = PrimeSubset(table_1e4, Interval(rng.randrange(1, 20), rng.randrange(20, 80)))
            plist = ps.primes().tolist()
            # some primes left out of the profile: omega(p) = 0 there
            entries = {p: rng.randrange(0, p) for p in plist if rng.random() < 0.8}
            omega = _lookup(entries)
            c_set = IntegerSet(rng.sample(range(1, 10**5), rng.randrange(1, 300)))
            shifts = IntegerSet(rng.sample(range(0, 60), rng.randrange(1, 5)))
            q_limit = rng.randrange(1, 40)
            rep = selberg_bound(c_set, ps, shifts, OccupancyProfile(entries), q_limit)
            want = old_selberg_remainder(c_set.array(), shifts.array(), plist, omega, q_limit)
            assert rep.remainder.hex() == want.hex()
            assert rep.denominator_L.hex() == old_denominator(omega, plist, q_limit).hex()

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize("lo, hi, bound, by_count", [
        # the products of at most two of the 21 primes in [101, 211] are all at
        # most 211^2, and no product of three is: the pre-count is exact
        (101, 211, 211**2, True),
        # the pre-count, 1 + 10 + 45 products of at most two primes, is short
        (2, 29, 30**2, False),
    ])
    def test_refusal_at_the_cap(self, table_1e4, monkeypatch, caller, lo, hi, bound, by_count):
        text, run = self.CALLERS[caller]
        primes = table_1e4.primes_between(lo, hi).tolist()
        count = sum(1 for _ in lattice(primes, bound, None, lambda s, p: s))
        assert (count == 1 + len(primes) + math.comb(len(primes), 2)) == by_count
        expected = _report(run(table_1e4, primes, bound))
        walk, drawn = arith.lattice, {}

        def spy(primes, bound, *args, **kwargs):
            drawn[bound] = 0
            for pair in walk(primes, bound, *args, **kwargs):
                drawn[bound] += 1
                yield pair

        monkeypatch.setattr(arith, "lattice", spy)
        monkeypatch.setattr(arith, "ENTRY_CAP", count)
        assert _report(run(table_1e4, primes, bound)) == expected
        assert drawn[bound] == count
        drawn.clear()
        monkeypatch.setattr(arith, "ENTRY_CAP", count - 1)
        with pytest.raises(CapacityError) as refused:
            run(table_1e4, primes, bound)
        assert str(refused.value) == text.format(count - 1)
        # refused before the walk, or at the pair past the cap and no later one
        assert drawn.get(bound) == (None if by_count else count)

    def test_selberg_walks_the_primes_to_q_squared(self, table_1e4, monkeypatch):
        # 9 of the subset's 1229 primes are at most Q^2 = 25: the ten products of
        # at most one of them pass a cap of 9 before the remainder's walk
        walk, walked = arith.lattice, []
        monkeypatch.setattr(arith, "lattice", lambda primes, bound, *a, **k:
                            walked.append(bound) or walk(primes, bound, *a, **k))
        monkeypatch.setattr(arith, "ENTRY_CAP", 9)
        with pytest.raises(CapacityError, match="^Selberg's remainder sums over more than 9 "):
            selberg_bound(IntegerSet(range(1, 200)), PrimeSubset(table_1e4, Interval(1, 10**4)),
                          (0, 2), OccupancyProfile({}), 5)
        assert walked == []  # L has no support, so no walk; the remainder's is refused first

    def test_no_term_past_the_cap(self, monkeypatch):
        for powers in (False, True):
            terms = []
            primes = [2, 3, 5, 7, 11, 13, 17]
            walk = list(lattice(primes, 200, 0, lambda s, p: s + 1, powers=powers))
            # the pre-count, 1 + 7 + 20 products of at most two primes, is short
            monkeypatch.setattr(arith, "ENTRY_CAP", 28)
            with pytest.raises(CapacityError, match="^over 28$"):
                arith._walk_sum(primes, 200, 0, lambda s, p: s + 1,
                                lambda pair: terms.append(pair) or 1.0, "over {}", powers=powers)
            assert terms == walk[:28]
            monkeypatch.setattr(arith, "ENTRY_CAP", len(walk))
            assert arith._walk_sum(primes, 200, 0, lambda s, p: s + 1,
                                   lambda pair: float(pair[1]), "over {}",
                                   powers=powers) == float(sum(r for _, r in walk))

    def test_pair_count_is_exact(self, monkeypatch):
        # max(primes)^2 > bound: the pre-count is 1, the primes and the pairs pq <=
        # bound, so a cap one below it refuses before the walk and the cap itself walks
        rng = random.Random(34)
        small = [p for p in range(2, 2000) if factorize(p) == [(p, 1)]]
        # products about 2^64: the quotients of a bound past int64 stay exact
        wide = [2**31 + 11, 2**32 - 5, 2**32 + 15, 2**33 + 17, 2**34 + 25]
        cases = [(wide, p * q + e) for p, q in itertools.combinations(wide, 2) for e in (-1, 0, 1)]
        for _ in range(200):
            primes = sorted(rng.sample(small, rng.randrange(12, 60)))
            cases.append((primes, rng.randrange(primes[-1], primes[-1] ** 2)))
        walk, drawn = arith.lattice, []
        monkeypatch.setattr(arith, "lattice", lambda *a, **k: drawn.append(1) or walk(*a, **k))
        for primes, bound in cases:
            pairs = sum(1 for p, q in itertools.combinations(primes, 2) if p * q <= bound)
            count = 1 + len(primes) + pairs
            monkeypatch.setattr(arith, "ENTRY_CAP", count - 1)
            with pytest.raises(CapacityError, match=f"^over {count - 1}$"):
                arith._walk_sum(primes, bound, 0, add, itemgetter(1), "over {}")
            assert not drawn
            monkeypatch.setattr(arith, "ENTRY_CAP", count)
            try:
                arith._walk_sum(primes, bound, 0, add, itemgetter(1), "over {}")
            except CapacityError:  # by the walk: products of three primes
                pass
            assert drawn
            drawn.clear()

    def test_two_prime_pre_count(self, table_1e4, monkeypatch):
        # the 1229 primes to 10^4 and n <= 10^6: max(primes)^2 passes the bound,
        # so the pre-count counts the 1 + 1229 + pairs products of at most two
        primes = table_1e4.primes_between(1, 10**4).tolist()
        bound = 10**6
        count = 1 + len(primes) + sum(bisect.bisect_right(primes, bound // p, i + 1) - i - 1
                                      for i, p in enumerate(primes))
        text, run = self.CALLERS["lattice_sum"]
        walk, drawn = arith.lattice, []
        monkeypatch.setattr(arith, "lattice", lambda *a, **k: drawn.append(1) or walk(*a, **k))
        for cap, walked in ((count - 1, False), (count, True)):
            # the walk holds products of three primes too: refused either way
            monkeypatch.setattr(arith, "ENTRY_CAP", cap)
            with pytest.raises(CapacityError, match=f"^{re.escape(text.format(cap))}$"):
                run(table_1e4, primes, bound)
            assert bool(drawn) == walked
            drawn.clear()

    def test_no_primes(self, monkeypatch):
        walk = arith.lattice
        monkeypatch.setattr(arith, "lattice", None)  # no walk is built
        assert arith._walk_sum([], 5, 2.5, add, itemgetter(1), "over {}") == 2.5
        # one term, added to 0.0 as the walk's loop adds it
        assert arith._walk_sum([], 1, -0.0, add, itemgetter(1), "over {}").hex() == "0x0.0p+0"
        monkeypatch.setattr(arith, "lattice", walk)
        assert arith._walk_sum([], 0, 2.5, add, itemgetter(1), "over {}") == 0.0  # no n
        monkeypatch.setattr(arith, "ENTRY_CAP", 0)
        with pytest.raises(CapacityError, match="^over 0$"):
            arith._walk_sum([], 5, 2.5, add, itemgetter(1), "over {}")


class TestRestrictedSums:
    def test_empty_support_gives_one(self, table_1e4):
        spec = MultiplicativeSpec({})
        assert restricted_multiplicative_sum(spec, all_primes(table_1e4), 100) == 1.0

    def test_hand_enumeration(self, table_1e4):
        spec = MultiplicativeSpec({3: 2.0, 5: 2.0})
        got = restricted_multiplicative_sum(spec, all_primes(table_1e4), 15, "squarefree")
        assert got == pytest.approx(1 + 2 / 3 + 2 / 5 + 4 / 15, rel=1e-14)

    def test_complete_mode_harmonic(self, table_1e4):
        spec = MultiplicativeSpec({p: 1.0 for p in (2, 3, 5, 7)})
        got = restricted_multiplicative_sum(spec, all_primes(table_1e4), 10, "complete")
        assert got == pytest.approx(sum(1 / n for n in range(1, 11)), rel=1e-12)

    def test_complete_mode_against_direct(self, table_1e4):
        rng = random.Random(5)
        primes = table_1e4.primes_between(1, 30).tolist()
        for _ in range(10):
            support = rng.sample(primes, rng.randrange(1, 5))
            values = {p: rng.uniform(0.1, 3.0) for p in support}
            spec = MultiplicativeSpec(values)
            bound = rng.randrange(20, 2000)
            got = restricted_multiplicative_sum(
                spec, all_primes(table_1e4), bound, "complete"
            )
            total = 0.0
            for n in range(1, bound + 1):
                term = 1.0
                for p, e in factorize(n):
                    term *= values.get(p, 0.0) ** e
                total += term / n
            assert got == pytest.approx(total, rel=1e-9)


class TestComparisonInequality:
    def test_equal_functions_give_equality(self, table_1e4):
        g = MultiplicativeSpec({2: 1.0, 3: 2.0, 7: 1.5})
        res = check_comparison_inequality(g, g, 500, table=table_1e4)
        assert res.holds
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_zero_f(self, table_1e4):
        g = MultiplicativeSpec({2: 1.0, 5: 3.0})
        f = MultiplicativeSpec({})
        res = check_comparison_inequality(f, g, 1000, table=table_1e4)
        assert res.lhs == 1.0
        assert res.holds

    def test_precondition_rejected(self, table_1e4):
        f = MultiplicativeSpec({3: 2.0})
        g = MultiplicativeSpec({3: 1.0})
        with pytest.raises(DomainError):
            check_comparison_inequality(f, g, 100, table=table_1e4)
        with pytest.raises(DomainError):
            check_comparison_inequality(
                MultiplicativeSpec({3: 3.5}), MultiplicativeSpec({3: 3.5}), 100,
                table=table_1e4,
            )

    def test_random_pairs_hold(self, table_1e4):
        rng = random.Random(6)
        primes = table_1e4.primes_between(1, 100).tolist()
        for _ in range(60):
            support = rng.sample(primes, rng.randrange(1, 8))
            g_vals = {p: rng.uniform(0.0, min(p - 1e-6, 10.0)) for p in support}
            f_vals = {p: rng.uniform(0.0, g_vals[p]) for p in support}
            res = check_comparison_inequality(
                MultiplicativeSpec(f_vals),
                MultiplicativeSpec(g_vals),
                rng.randrange(50, 10**4),
                table=table_1e4,
            )
            assert res.holds, f"violated at {f_vals} vs {g_vals}: {res}"


class TestTableCoverage:
    """Q(T), the squarefree enumeration and both restricted sums on a short
    table: the answer of a table that covers the bound, or CapacityError, and
    the error only when the selector could pass a needed prime past the table."""

    def test_short_table_refuses(self):
        short, covering = PrimeTable(100), PrimeTable(1000)
        spec = MultiplicativeSpec({3: 1, 101: 50})
        # the 100 table once gave 310 elements and the sum 1.333...
        with pytest.raises(CapacityError, match="range end 1000 exceeds table limit 100"):
            enumerate_squarefree_supported(all_primes(short), 1000)
        with pytest.raises(CapacityError, match="101 exceeds table limit 100"):
            restricted_multiplicative_sum(spec, all_primes(short), 1000)
        assert len(list(enumerate_squarefree_supported(all_primes(covering), 1000))) == 608
        assert restricted_multiplicative_sum(spec, all_primes(covering), 1000) == pytest.approx(
            1 + 1 / 3 + 50 / 101 + 50 / 303, rel=1e-15)
        # a selector bounded inside the table needs no prime past it
        for table in (short, covering):
            assert restricted_multiplicative_sum(
                spec, PrimeSubset(table, Interval(0, 50)), 1000) == 4 / 3

    _TABLES = {limit: PrimeTable(limit) for limit in (60, 500, 4096)}
    _SELECTORS = st.one_of(
        st.builds(Interval, st.integers(0, 700), st.integers(0, 700)),
        st.integers(1, 6).flatmap(
            lambda m: st.builds(ResidueClass, st.integers(0, m - 1), st.just(m))),
        st.builds(Excluding, st.frozensets(st.integers(2, 60), max_size=6)),
        st.builds(MinValue, st.integers(0, 700)),
    )
    _PRIMES = [p for p in range(2, 2100) if factorize(p) == [(p, 1)]]

    @settings(max_examples=150, deadline=None)
    @given(
        limit=st.sampled_from([60, 500]),
        selectors=st.lists(_SELECTORS, min_size=1, max_size=2),
        bound=st.integers(1, 2000),
        values=st.dictionaries(st.sampled_from(_PRIMES), st.floats(0, 5), max_size=6),
    )
    def test_equal_to_a_covering_table_or_refused(self, limit, selectors, bound, values):
        selector = selectors[0] if len(selectors) == 1 else And(tuple(selectors))
        spec = MultiplicativeSpec(values)
        # the primes a run needs: all up to the bound, or the sum's support
        past_all = min(bound, selector.upper()) > limit
        past_support = any(limit < p <= bound and selector.contains(p) for p in spec.support())
        runs = {
            "Q(T)": (lambda ps: enumerate_q(ps, bound).elements, past_all),
            "squarefree": (lambda ps: list(enumerate_squarefree_supported(ps, bound)), past_all),
            **{mode: (lambda ps, mode=mode: restricted_multiplicative_sum(spec, ps, bound, mode),
                      past_support)
               for mode in ("squarefree", "complete")},
        }
        for name, (run, may_raise) in runs.items():
            expected = run(PrimeSubset(self._TABLES[4096], selector))
            try:
                got = run(PrimeSubset(self._TABLES[limit], selector))
            except CapacityError:
                assert may_raise, name
            else:
                assert got == expected, name
