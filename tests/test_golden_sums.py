"""Lattice sums pinned to the exact floats they print.

Each sum is accumulated over its squarefree or smooth lattice in preorder with
plain ``+=``; a different walk order, a numpy reduction or a compensated
``sum()`` changes the last bits and so the reports' bytes.  The expected
strings are the values' ``repr`` from before every walk moved onto the one
lattice walk in ``sumsieve.arith``; they must not change with it.
"""

import hashlib
import math

import pytest

from sumsieve.arith import (
    MultiplicativeSpec,
    check_comparison_inequality,
    restricted_multiplicative_sum,
)
from sumsieve.errors import CapacityError
from sumsieve.irreducibility import (
    build_context,
    check_bv_condition,
    check_scs_condition,
    ostmann_multiplicative_diagnostic,
)
from sumsieve.primes import (
    Excluding,
    Interval,
    PrimeSubset,
    ResidueClass,
    all_primes,
    density_ratio_c,
)
from sumsieve.profiles import scaled
from sumsieve.semigroup import enumerate_q
from sumsieve.sieves import (
    large_sieve_bound,
    occupancy,
    prop_smallkbv_bound,
    prop_smallkscs_bound,
    selberg_bound,
)
from sumsieve.smooth import SmoothQuery, bv_discrepancy_sum
from sumsieve.sumset import IntegerSet

SQUARES = IntegerSet(i * i for i in range(1, 1001))


@pytest.fixture(scope="module")
def scaled_instance(table_1e6):
    """Every other element of Q(primes != 1 mod 4) up to 10^4, with P0 the
    primes = 1 mod 4 and a scaled profile putting K at 30 and P0* from 29."""
    x = 10**4
    p0 = PrimeSubset(table_1e6, ResidueClass(1, 4))
    banned = frozenset(p0.primes_in(1, x).tolist())
    carrier = enumerate_q(PrimeSubset(table_1e6, Excluding(banned)), x)
    s = IntegerSet(carrier.elements[::2])
    c = density_ratio_c(p0, x, window_floor_exponent=0.3)
    profile = scaled(
        k_coefficient=30.0 * (len(s) / x) * c * c / math.log(x) ** 2,
        star_exponent=math.log(20.0) / math.log(30.0),
        c_floor_exponent=0.3,
    )
    ctx = build_context(s, s, p0, x, profile)
    assert len(s) == 1776 and ctx.ps_star.primes_in(1, 41).tolist() == [29, 37, 41]
    return ctx, s


def bv_instance(table, **kwargs):
    ps = PrimeSubset(table, Interval(50, 100))
    return bv_discrepancy_sum(SmoothQuery(10**5, 20), ps, 90, 3, **kwargs)


def test_large_sieve_L(table_1e6):
    profile = occupancy(SQUARES, PrimeSubset(table_1e6, Interval(2, 200)))
    assert repr(large_sieve_bound(profile, 10**6, 60).denominator_L) == "38.606934823464066"


def test_selberg_L_main_and_remainder(table_1e6):
    ps = PrimeSubset(table_1e6, Interval(5, 40))
    omega = occupancy(IntegerSet([0, 2, 6]), ps)
    rep = selberg_bound(IntegerSet(range(1000, 1600)), ps, [0, 2, 6], omega, 30)
    assert (repr(rep.denominator_L), repr(rep.main_term), repr(rep.remainder)) == (
        "3.0921703296703296", "194.0384700812936", "335.950937739029"
    )


def test_small_k_sums(scaled_instance):
    ctx, s = scaled_instance
    assert repr(prop_smallkscs_bound(s, [0, 2, 8], ctx).denominator_L) == "0.46921578073527015"
    rep = prop_smallkbv_bound(s, [0, 2, 8], ctx, 60)
    assert (repr(rep.denominator_L), repr(rep.main_term), repr(rep.remainder)) == (
        "0.20953590815691525", "16951.748419846073", "13725.017465856017"
    )


def test_condition_sums(scaled_instance):
    ctx, s = scaled_instance
    bv = check_bv_condition(ctx, s, 60).values
    assert (repr(bv["main_sum"]), repr(bv["disc_sum"])) == (
        "0.10476795407845763", "573056.5874172285"
    )
    assert repr(check_scs_condition(ctx).values["sum_value"]) == "0.3128105204901801"


def test_ostmann_sum_f():
    diag = ostmann_multiplicative_diagnostic(SQUARES, 10**6, 1000)
    assert repr(diag["sum_f"]) == "605.6823249638345"


def test_restricted_sums(table_1e6):
    f = MultiplicativeSpec({2: 1.0, 3: 2.0, 5: 0.5, 7: 3.0, 11: 1.5})
    g = MultiplicativeSpec({2: 1.5, 3: 2.5, 5: 4.0, 7: 3.0, 11: 7.0, 13: 1.0})
    res = check_comparison_inequality(f, g, 5000, table_1e6)
    assert (repr(res.lhs), repr(res.rhs)) == ("11.38345829951728", "1.8349467972439228")
    got = restricted_multiplicative_sum(g, all_primes(table_1e6), 5000, "squarefree")
    assert repr(got) == "14.471503496503498"


def test_bv_discrepancy_total_and_rows(table_1e6):
    total, rows = bv_instance(table_1e6)
    assert repr(total) == "10700.633629844438"
    assert len(rows) == 54
    assert (rows[0].d, rows[0].factors, repr(rows[0].term)) == (53, (53,), "24.75")
    last = rows[-1]
    assert (last.d, last.factors, repr(last.max_deviation)) == (8051, (83, 97), "2.56567581300813")
    text = "\n".join(f"{r.d} {r.factors} {r.weight!r} {r.max_deviation!r} {r.term!r}" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5604d6869ae9171a610e33b154191c9678f707b4345fe9d1ee814429b05ab7d1"
    )


def test_bv_discrepancy_partial_progress(table_1e6):
    with pytest.raises(CapacityError) as first:
        bv_instance(table_1e6, modulus_work_cap=100)
    err = first.value
    assert (err.last_d, repr(err.partial_sum), err.partial_breakdown) == (53, "0.0", [])
    with pytest.raises(CapacityError) as later:
        bv_instance(table_1e6, modulus_work_cap=20000)
    err = later.value
    assert (err.last_d, repr(err.partial_sum)) == (3551, "573.1642241379311")
    assert [(b.d, repr(b.term)) for b in err.partial_breakdown] == [
        (53, "24.75"), (3127, "232.17672413793102"), (3233, "316.2375")
    ]
