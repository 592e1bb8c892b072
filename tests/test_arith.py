import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from sumsieve.semigroup import enumerate_q


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
