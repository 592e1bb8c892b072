"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every bound assertion runs against an exact brute-force count; every stated
constant and tolerance is pinned here.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time

import numpy as np
import pytest

from sumsieve.arith import MultiplicativeSpec, check_comparison_inequality
from sumsieve.irreducibility import (
    build_context,
    check_bv_condition,
    check_scs_condition,
    conclusion_bounds,
    half_occupancy_identity_gap,
    ostmann_epsilon_profile,
)
from sumsieve.primes import (
    Excluding,
    Interval,
    PrimeSubset,
    PrimeTable,
    ResidueClass,
    all_primes,
    density_ratio_c,
)
from sumsieve.profiles import STRICT, scaled
from sumsieve.semigroup import enumerate_q, estimate_tau
from sumsieve.sieves import (
    OccupancyProfile,
    inverse_sieve_lower_bound,
    large_sieve_bound,
    larger_sieve_bound,
    middlek_bound,
    occupancy,
    prop_smallkbv_bound,
    prop_smallkscs_bound,
    selberg_bound,
)
from sumsieve.smooth import SmoothQuery, dickman_rho, enumerate_smooth, psi
from sumsieve.sumset import IntegerSet, decompose_binary, ruzsa_check, sumset


def report(number: int, description: str, violations: list, extra: str = ""):
    status = "PASS" if not violations else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"\n[criterion {number:02d}] {status}: {description}{tail}")
    assert not violations, f"criterion {number}: {violations[:5]}"


@pytest.fixture(scope="module")
def table_main():
    return PrimeTable(10**6)


@pytest.fixture(scope="module")
def table_deep():
    return PrimeTable(10**7)


@pytest.fixture(scope="module")
def table_small():
    return PrimeTable(10**4)


# ---------------------------------------------------------------------------
# criterion 1: sieve soundness, 1000 instances per evaluator


def _larger_sieve_batch(table, rng, n_instances):
    violations = []
    done = 0
    while done < n_instances:
        n_limit = rng.randrange(300, 4000)
        k = rng.randrange(3, 9)
        a = IntegerSet(rng.sample(range(1, n_limit + 1), k))
        hi = rng.randrange(1500, 4000)
        ps = PrimeSubset(table, Interval(2, hi))
        rep = larger_sieve_bound(occupancy(a, ps), ps, n_limit)
        if not rep.valid:
            continue
        done += 1
        if rep.bound < len(a) - 1e-9:
            violations.append((n_limit, tuple(a.elements), rep.bound))
    return violations


def _large_sieve_batch(table, rng, n_instances):
    violations = []
    candidates = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(n_instances):
        x = rng.randrange(500, 20000)
        q_limit = rng.randrange(2, 32)
        omega, avoided = {}, {}
        for p in candidates:
            if p <= q_limit and rng.random() < 0.6:
                w = rng.randrange(1, p)
                omega[p] = w
                avoided[p] = rng.sample(range(p), w)
        arr = np.arange(1, x + 1)
        keep = np.ones(arr.shape, dtype=bool)
        for p, res in avoided.items():
            keep &= ~np.isin(arr % p, res)
        count = int(keep.sum())
        rep = large_sieve_bound(OccupancyProfile(omega), x, q_limit)
        if rep.bound < count - 1e-9:
            violations.append((x, q_limit, omega, count, rep.bound))
    return violations


def _selberg_batch(table, rng, n_instances):
    violations = []
    for _ in range(n_instances):
        size = rng.randrange(150, 1500)
        start = rng.randrange(1, 4000)
        c_set = IntegerSet(range(start, start + size))
        k = rng.randrange(1, 5)
        shifts = IntegerSet(rng.sample(range(0, start + size), k))
        lo = rng.randrange(5, 80)
        ps = PrimeSubset(table, Interval(lo, lo + rng.randrange(20, 150)))
        plist = ps.primes().tolist()
        if not plist:
            continue
        omega = OccupancyProfile(
            {p: rng.uniform(0.0, min(p - 1e-9, 3.0 * k)) for p in plist}
        )
        rep = selberg_bound(c_set, ps, shifts, omega, rng.randrange(2, 16))
        if rep.bound < rep.sifted_count - 1e-6:
            violations.append((start, size, k, rep.bound, rep.sifted_count))
    return violations


_CARRIERS = {}


def _carrier(table, residue, modulus, x):
    key = (residue, modulus, x)
    if key not in _CARRIERS:
        p0 = PrimeSubset(table, ResidueClass(residue, modulus))
        banned = frozenset(p0.primes_in(1, x).tolist())
        _CARRIERS[key] = enumerate_q(PrimeSubset(table, Excluding(banned)), x)
    return _CARRIERS[key]


def _scaled_small_k_instance(table, rng, k, x_choices=(10**4, 2 * 10**4)):
    modulus, residue = rng.choice([(4, 1), (4, 3), (3, 1), (3, 2)])
    x = rng.choice(x_choices)
    p0 = PrimeSubset(table, ResidueClass(residue, modulus))
    carrier = _carrier(table, residue, modulus, x)
    size = min(rng.randrange(800, 2200), len(carrier))
    s = IntegerSet(rng.sample(carrier.elements, size))
    c = density_ratio_c(p0, x, window_floor_exponent=0.3)
    sigma = len(s) / x
    k_target = rng.uniform(max(4 * k + 6, 25), 70)
    star_min = rng.uniform(4 * k + 1, min(58.0, k_target * 1.9))
    profile = scaled(
        k_coefficient=k_target * sigma * c * c / math.log(x) ** 2,
        star_exponent=math.log(star_min) / math.log(k_target),
        c_floor_exponent=0.3,
    )
    ctx = build_context(s, s, p0, x, profile)
    shifts = IntegerSet(rng.sample(range(0, x), k))
    return ctx, s, shifts


def _smallkscs_batch(table, rng, n_instances):
    violations = []
    done = attempts = 0
    while done < n_instances and attempts < 3 * n_instances:
        attempts += 1
        k = rng.randrange(2, 7)
        ctx, s, shifts = _scaled_small_k_instance(table, rng, k)
        rep = prop_smallkscs_bound(s, shifts, ctx)
        if not (rep.valid and rep.hypotheses_ok):
            continue
        done += 1
        if rep.bound < rep.sifted_count:
            violations.append((ctx.x, k, rep.bound, rep.sifted_count))
    if done < n_instances:
        violations.append(f"only {done} hypothesis-verified instances generated")
    return violations


def _smallkbv_batch(table, rng, n_instances):
    violations = []
    done = attempts = 0
    while done < n_instances and attempts < 3 * n_instances:
        attempts += 1
        k = rng.randrange(2, 6)
        ctx, s, shifts = _scaled_small_k_instance(table, rng, k, x_choices=(10**4,))
        if len(s) > 1200:
            s = IntegerSet(rng.sample(s.elements, 900))
        rep = prop_smallkbv_bound(s, shifts, ctx, rng.randrange(28, 42))
        if not (rep.valid and rep.hypotheses_ok):
            continue
        done += 1
        if rep.bound < rep.sifted_count:
            violations.append((ctx.x, k, rep.bound, rep.sifted_count))
    if done < n_instances:
        violations.append(f"only {done} hypothesis-verified instances generated")
    return violations


def _sample_range(rng, lo, hi, k):
    """rng.sample(range(lo, hi), k) as an int64 array, from the same bits.

    Above its set-size threshold, random.sample draws j = getrandbits(b) with
    b = (hi - lo).bit_length() until j < hi - lo and j is new.  Those draws are
    read here from one bulk getrandbits stream: the sample is the first k
    distinct accepted draws, and rng is then advanced by exactly the words
    they used.
    """
    n = hi - lo
    bits = n.bit_length()
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if n <= setsize or bits > 64:
        return np.array(rng.sample(range(lo, hi), k), dtype=np.int64)
    words = 1 if bits <= 32 else 2  # 32-bit words per draw, lowest first
    state = rng.getstate()
    draws = k + k // 8 + 16
    while True:
        stream = rng.getrandbits(32 * words * draws).to_bytes(4 * words * draws, "little")
        raw = np.frombuffer(stream, dtype="<u4").astype(np.uint64)
        if words == 1:
            vals = raw >> np.uint64(32 - bits)
        else:
            vals = raw[0::2] | (raw[1::2] >> np.uint64(64 - bits)) << np.uint64(32)
        accepted = np.flatnonzero(vals < n)
        _, first = np.unique(vals[accepted], return_index=True)
        rng.setstate(state)
        if first.size >= k:
            picks = accepted[np.sort(first)[:k]]
            rng.getrandbits(32 * words * (int(picks[-1]) + 1))
            return vals[picks].astype(np.int64) + lo
        draws *= 2


def test_sample_range_matches_random_sample():
    for seed in range(40):
        for lo, hi, k in ((1, 10**12, 60), (1, 1000, 30), (0, 100, 50), (7, 2**32 + 7, 9),
                          (0, 2**32 - 1, 12), (3, 2**40 + 3, 1), (0, 2**63 - 1, 25),
                          (0, 1025, 85)):  # the last needs a second, longer stream
            ours, ref = random.Random(seed), random.Random(seed)
            assert _sample_range(ours, lo, hi, k).tolist() == ref.sample(range(lo, hi), k)
            assert ours.getstate() == ref.getstate()


def _middlek_batch(table_small, rng, n_instances):
    violations = []
    x = 10**12
    done = attempts = 0
    while done < n_instances and attempts < 4 * n_instances:
        attempts += 1
        if rng.random() < 0.6:
            k = 2 if rng.random() < 0.7 else 3
            w_coeff = 0.5
        else:
            k = rng.randrange(10, 50)
            w_coeff = rng.uniform(2.0, 3.5)
        y1 = rng.uniform(360, 500) if k != 3 else rng.uniform(430, 500)
        y2 = rng.uniform(2.2 * y1, 0.95 * math.sqrt(x) / y1)
        ps = PrimeSubset(table_small, Interval(y1 / 2, y2))
        s = IntegerSet(_sample_range(rng, 1, x, rng.randrange(4000, 12000)))
        shifts = IntegerSet(rng.sample(range(0, x), k))
        rep = middlek_bound(
            s, shifts, ps, x, y1, y2, profile=scaled(window_coefficient=w_coeff)
        )
        if not (rep.valid and rep.hypotheses_ok):
            continue
        done += 1
        if rep.bound < rep.sifted_count:
            violations.append((k, y1, y2, rep.branch, rep.bound, rep.sifted_count))
    if done < n_instances:
        violations.append(f"only {done} hypothesis-verified instances generated")
    return violations


def test_criterion_1_sieve_soundness(table_main, table_small):
    n = 1000
    start = time.monotonic()
    violations = []
    batches = [
        ("larger", _larger_sieve_batch, table_main),
        ("large", _large_sieve_batch, table_main),
        ("selberg", _selberg_batch, table_main),
        ("smallkscs", _smallkscs_batch, table_main),
        ("smallkbv", _smallkbv_batch, table_main),
        ("middlek", _middlek_batch, table_small),
    ]
    for name, fn, table in batches:
        rng = random.Random(f"acceptance-1:{name}")
        bad = fn(table, rng, n)
        if bad:
            violations.append((name, bad[:3]))
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.0f}s exceeded 5 minutes")
    report(
        1,
        f"sieve soundness, {n} instances x 6 evaluators, zero violations",
        violations,
        extra=f"{elapsed:.0f}s",
    )


def test_criterion_2_inverse_sieve(table_main):
    rng = random.Random("acceptance-2")
    violations = []
    strengthened = 0
    for _ in range(1000):
        x = rng.randrange(100, 10**5)
        k = rng.randrange(2, 25)
        a = IntegerSet(rng.sample(range(1, x + 1), min(k, x)))
        y = rng.uniform(10, 5000)
        kind = rng.randrange(3)
        if kind == 0:
            ps = all_primes(table_main)
        elif kind == 1:
            ps = PrimeSubset(table_main, ResidueClass(rng.choice([1, 3]), 4))
        else:
            ps = PrimeSubset(table_main, Interval(y / 4, y * 3))
        rep = inverse_sieve_lower_bound(a, ps, y, x)
        if rep.lhs < rep.lower - 1e-9 or rep.lhs < rep.base_lower - 1e-9:
            violations.append((x, k, y, rep))
        if rep.strengthened:
            strengthened += 1
            if rep.lhs < (len(a) / 2) * rep.recip_sum - 1e-9:
                violations.append(("strengthened", x, k, y, rep))
    if strengthened == 0:
        violations.append("no instance triggered the strengthened branch")
    report(
        2,
        "inverse sieve: exact LHS >= lower bound on 1000 instances",
        violations,
        extra=f"{strengthened} strengthened",
    )


def test_criterion_3_comparison_inequality(table_small):
    rng = random.Random("acceptance-3")
    primes = table_small.primes_between(1, 100).tolist()
    violations = []
    for _ in range(1000):
        support = rng.sample(primes, rng.randrange(1, 9))
        g_vals = {p: rng.uniform(0.0, min(p - 1e-6, 12.0)) for p in support}
        f_vals = {p: rng.uniform(0.0, g_vals[p]) for p in support}
        bound = rng.randrange(50, 10**4 + 1)
        res = check_comparison_inequality(
            MultiplicativeSpec(f_vals),
            MultiplicativeSpec(g_vals),
            bound,
            table=table_small,
        )
        if res.lhs < res.rhs - 1e-9:
            violations.append((f_vals, g_vals, bound, res))
    report(3, "multiplicative comparison inequality on 1000 random pairs", violations)


def test_criterion_4_ruzsa():
    rng = random.Random("acceptance-4")
    violations = []
    for _ in range(1000):
        sets = [
            IntegerSet(rng.sample(range(0, 10**4 + 1), rng.randrange(1, 65)))
            for _ in range(3)
        ]
        res = ruzsa_check(*sets)
        if not res.holds:
            violations.append((sets, res))
    report(4, "ternary sumset inequality on 1000 random triples", violations)


def test_criterion_5_smooth_cross_check():
    violations = []
    for x in (10**3, 10**4, 10**5, 10**6):
        for y in (2, 3, 5, 10, 30, 100):
            via_rec = psi(SmoothQuery(x, y))
            via_enum = int(enumerate_smooth(x, y).size)
            if via_rec != via_enum:
                violations.append((x, y, via_rec, via_enum))
    if psi(SmoothQuery(100, 3)) != 20:
        violations.append(("psi(100,3)", psi(SmoothQuery(100, 3))))
    if psi(SmoothQuery(10, 2)) != 4:
        violations.append(("psi(10,2)", psi(SmoothQuery(10, 2))))
    rng = random.Random("acceptance-5")
    for _ in range(50):
        x = rng.randrange(100, 2 * 10**4)
        y = rng.randrange(2, 40)
        d = rng.randrange(1, 80)
        total = sum(psi(SmoothQuery(x, y, d, a)) for a in range(d))
        if total != psi(SmoothQuery(x, y)):
            violations.append(("progression", x, y, d, total))
    report(5, "smooth counting: recurrence = enumeration on the grid; "
              "progressions partition", violations)


def test_criterion_6_dickman():
    violations = []
    for u in np.linspace(0.0, 1.0, 21):
        if dickman_rho(float(u)).rho != 1.0:
            violations.append(("unit interval", float(u)))
    gap2 = abs(dickman_rho(2.0).rho - (1.0 - math.log(2.0)))
    if gap2 > 1e-8:
        violations.append(("rho(2)", gap2))
    for u in np.linspace(1.0, 20.0, 39):  # half-integer mesh on [1, 20]
        u = float(u)
        lhs = u * dickman_rho(u).rho
        total = 0.0
        lo = u - 1.0
        breaks = [lo] + [float(b) for b in range(math.ceil(lo), math.ceil(u))] + [u]
        for a, b in zip(breaks, breaks[1:]):
            if b <= a:
                continue
            n = 512
            xs = np.linspace(a, b, n + 1)
            ys = np.array([dickman_rho(float(t)).rho for t in xs])
            h = (b - a) / n
            total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        if abs(lhs - total) > 1e-8:
            violations.append(("identity", u, abs(lhs - total)))
    # relative checks: published values, and the identity far out, where rho
    # underflows, divided through by rho(u)
    rel10 = abs(dickman_rho(10.0).rho / 2.77017183772596e-11 - 1.0)
    if rel10 > 1e-12:
        violations.append(("rho(10) relative", rel10))
    rel20 = abs(dickman_rho(20.0).log_rho / -65.8740818822 - 1.0)
    if rel20 > 1e-10:
        violations.append(("log rho(20) relative", rel20))
    for u in (20.5, 57.0, 137.25, 300.75, 500.0):
        ref = dickman_rho(u).log_rho
        total = 0.0
        for a, b in ((u - 1.0, math.floor(u)), (math.floor(u), u)):
            if b <= a:
                continue
            n = 1024
            xs = np.linspace(a, b, n + 1)
            ys = np.exp([dickman_rho(float(t)).log_rho - ref for t in xs])
            h = (b - a) / n
            total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        if abs(total / u - 1.0) > 1e-10:
            violations.append(("relative identity", u, abs(total / u - 1.0)))
    report(6, "Dickman: 1 on [0,1]; rho(2) = 1 - ln 2 to 1e-8; "
              "integral identity to 1e-8 on [1,20]; rho(10) to 1e-12 and log rho(20) "
              "to 1e-10 relative; identity to 1e-10 relative up to u = 500", violations)


def test_criterion_7_semigroup(table_deep, table_main):
    violations = []
    rng = random.Random("acceptance-7")
    # 20 subsets vs the marking filter at x <= 10^6
    subsets = []
    for modulus, residue in ((4, 1), (4, 3), (3, 1), (3, 2), (8, 1), (8, 3), (8, 5), (5, 1)):
        subsets.append((ResidueClass(residue, modulus), rng.randrange(10**4, 10**5)))
    for _ in range(8):
        lo = rng.randrange(2, 60)
        subsets.append(
            (Interval(lo, lo + rng.randrange(20, 500)), rng.randrange(5000, 10**5))
        )
    for _ in range(4):
        banned = frozenset(rng.sample(range(2, 80), rng.randrange(2, 12)))
        subsets.append((Excluding(banned), rng.randrange(5000, 10**5)))
    subsets[0] = (subsets[0][0], 10**6)  # one full-size instance
    assert len(subsets) == 20
    for selector, x in subsets:
        ps = PrimeSubset(table_main, selector)
        got = enumerate_q(ps, x).array()
        mask = np.ones(x + 1, dtype=bool)
        mask[0] = False
        for p in table_main.primes_between(1, x).tolist():
            if not ps.contains(p):
                mask[p::p] = False
        if not np.array_equal(got, np.flatnonzero(mask)):
            violations.append(("filter", selector.describe(), x))

    one_mod_four = PrimeSubset(table_deep, ResidueClass(1, 4))
    q100 = enumerate_q(one_mod_four, 100)
    if len(q100) != 15:
        violations.append(("count(100)", len(q100)))

    stats = estimate_tau(one_mod_four, 10**7)
    if not (0.45 <= stats.tau_hat <= 0.55):
        violations.append(("tau_hat", stats.tau_hat))

    ratios = []
    for x in (10**5, 10**6, 10**7):
        count = len(enumerate_q(one_mod_four, x))
        ratios.append(count * math.sqrt(math.log(x)) / x)
    if max(ratios) / min(ratios) > 1.5:
        violations.append(("stability", ratios))
    report(
        7,
        "semigroup: filter agreement on 20 subsets; |Q(100)| = 15; "
        "tau in [0.45, 0.55]; normalised counts stable",
        violations,
        extra=f"tau_hat={stats.tau_hat:.3f}",
    )


def test_criterion_8_decomposition():
    start = time.monotonic()
    violations = []
    # (a) completeness against exhaustive enumeration over [0, 12]
    top = 12
    b_masks = np.array([m for m in range(1, 1 << (top + 1)) if m & 1], dtype=np.uint64)
    b_pop = np.array([bin(m).count("1") for m in b_masks])
    limit = np.uint64(1 << (top + 1))
    oracle = set()
    for a_mask in range(1, 1 << (top + 1)):
        if not a_mask & 1:
            continue
        a_bits = [i for i in range(top + 1) if a_mask >> i & 1]
        if len(a_bits) < 2:
            continue
        sums = np.zeros(len(b_masks), dtype=np.uint64)
        ok = np.ones(len(b_masks), dtype=bool)
        for a in a_bits:
            shifted = b_masks << np.uint64(a)
            ok &= shifted < limit
            sums |= shifted
        for m in np.unique(sums[ok & (b_pop >= 2)]):
            oracle.add(int(m))
    checked = 0
    for mask in range(1, 1 << (top + 1)):
        elements = [i for i in range(top + 1) if mask >> i & 1]
        if len(elements) < 2:
            continue
        checked += 1
        res = decompose_binary(elements)
        normalised_mask = mask >> elements[0]  # the oracle is translation-closed
        if res.decomposable != (normalised_mask in oracle):
            violations.append(("completeness", elements))
        elif res.decomposable:
            wa, wb = res.witness
            if sumset(wa, wb).elements != tuple(elements):
                violations.append(("witness", elements))

    # (b) 500 random generators re-discovered, (d) witnesses re-verify
    rng = random.Random("acceptance-8")
    for _ in range(500):
        a = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
        b = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
        s = sumset(a, b)
        res = decompose_binary(s)
        if not res.decomposable:
            violations.append(("round-trip", a.elements, b.elements))
            continue
        wa, wb = res.witness
        if sumset(wa, wb) != s:
            violations.append(("re-verify", a.elements, b.elements))

    # (c) {0,1,3}
    if decompose_binary([0, 1, 3]).decomposable:
        violations.append(("{0,1,3} must be indecomposable",))

    elapsed = time.monotonic() - start
    if elapsed >= 600.0:
        violations.append(f"runtime {elapsed:.0f}s exceeded 10 minutes")
    report(
        8,
        f"decomposition search: exhaustive agreement on {checked} subsets of "
        "[0,12]; 500 round trips; witnesses re-verify",
        violations,
        extra=f"{elapsed:.0f}s",
    )


def test_criterion_9_genthm_checker(table_main):
    violations = []
    # worked instance A: 3-smooth numbers at x = 10^4, scaled constants
    s3 = IntegerSet(enumerate_smooth(10**4, 3).tolist())
    ps3 = PrimeSubset(table_main, Interval(3, 100))
    profile3 = scaled(
        k_coefficient=0.002,
        star_exponent=1.2,
        condition_coefficient=0.0015,
        c_floor_exponent=0.25,
    )
    try:
        ctx3 = build_context(s3, s3, ps3, 10**4, profile3)
        scs3 = check_scs_condition(ctx3)
        bv3 = check_bv_condition(ctx3, s3, 100)
        bounds3 = conclusion_bounds(ctx3)
        if scs3.values["profile"] != "scaled" or bv3.values["profile"] != "scaled":
            violations.append("scaled profile not echoed in the 3-smooth reports")
        if not scs3.holds:
            violations.append("3-smooth scaled SCS condition failed to hold")
        expected_shape = math.sqrt(10**4) * math.log(10**4) ** 4 / ctx3.c**4
        if not math.isclose(bounds3.upper_B, expected_shape, rel_tol=1e-12):
            violations.append("3-smooth conclusion shape mismatch")
    except Exception as exc:  # evaluation itself must not error
        violations.append(f"3-smooth scaled evaluation raised {exc!r}")

    # worked instance B: semigroup of primes 1 mod 4 at x = 10^6
    t14 = PrimeSubset(table_main, ResidueClass(1, 4))
    s_semi = enumerate_q(t14, 10**6)
    p0 = PrimeSubset(table_main, ResidueClass(3, 4))
    c_meas = density_ratio_c(p0, 10**6, window_floor_exponent=0.1)
    sigma = len(s_semi) / 10**6
    k_target, star_min = 120.0, 108.0
    profile_semi = scaled(
        k_coefficient=k_target * sigma * c_meas**2 / math.log(10**6) ** 2,
        star_exponent=math.log(star_min) / math.log(k_target),
        condition_coefficient=0.02,
    )
    try:
        ctx_semi = build_context(s_semi, s_semi, p0, 10**6, profile_semi)
        scs_semi = check_scs_condition(ctx_semi)
        bv_semi = check_bv_condition(ctx_semi, s_semi, 150)
        bounds_semi = conclusion_bounds(ctx_semi)
        if not scs_semi.holds:
            violations.append("semigroup scaled SCS condition failed to hold")
        if scs_semi.values["profile"] != "scaled":
            violations.append("scaled profile not echoed in the semigroup report")
        if not math.isfinite(bounds_semi.upper_B) or bounds_semi.upper_B <= 0:
            violations.append("semigroup conclusion shape not finite positive")
        if not isinstance(bv_semi.holds, bool):
            violations.append("semigroup BV condition did not evaluate")
    except Exception as exc:
        violations.append(f"semigroup scaled evaluation raised {exc!r}")

    # strict runs at the same x: P0* must be reported empty, honestly
    for s_set, ps, x in ((s3, ps3, 10**4), (s_semi, p0, 10**6)):
        ctx_strict = build_context(s_set, s_set, ps, x, STRICT)
        if not ctx_strict.ps_star.is_empty():
            violations.append(f"strict P0* unexpectedly non-empty at x={x}")
        scs_strict = check_scs_condition(ctx_strict)
        if scs_strict.holds or scs_strict.values["sum_value"] != 0.0:
            violations.append("strict SCS fabricated a verdict from an empty P0*")
        if not ctx_strict.ps_star.is_empty() or scs_strict.values["profile"] != "strict":
            violations.append("strict profile not echoed")
    report(
        9,
        "general-theorem checker: worked instances evaluate, profiles echoed, "
        "conclusion shapes emitted, strict honesty preserved",
        violations,
    )


def test_criterion_10_half_occupancy_diagnostics():
    violations = []
    squares = IntegerSet([i * i for i in range(1, 1001)])
    prof = ostmann_epsilon_profile(squares, 10**6, 10**3)
    for p, eps in prof.entries.items():
        if p > 2 and eps != 0.5:
            violations.append(("epsilon", p, eps))
    moment_odd = sum(
        (math.log(p) / p) * (eps * eps) / (p * p)
        for p, eps in prof.entries.items()
        if p > 2
    )
    if moment_odd >= 0.1:
        violations.append(("moment", moment_odd))
    gap = half_occupancy_identity_gap(prof)
    if gap > 1e-9:
        violations.append(("identity", gap))
    report(
        10,
        "half-occupancy diagnostics: eps = 1/2 at every odd p <= 1000, "
        "quadratic moment below 0.1, identity to 1e-9",
        violations,
        extra=f"moment={moment_odd:.4f}, full-range={prof.moment_quadratic:.4f}",
    )
