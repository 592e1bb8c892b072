"""Randomised invariant batches, one per named property.

Each batch takes a seeded ``random.Random`` and a case count, runs that many
independent cases and raises AssertionError on the first violation.  The CLI
``verify-all`` command runs every batch within a time budget; the test suite
reuses several of them with fixed seeds.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from . import arith, primes, semigroup, sieves, smooth
from .sumset import IntegerSet, decompose_binary, ruzsa_check, sumset


def _random_subset(rng: random.Random, table) -> primes.PrimeSubset:
    kind = rng.randrange(4)
    if kind == 0:
        return primes.all_primes(table)
    if kind == 1:
        m = rng.choice([3, 4, 5, 8])
        residues = [a for a in range(1, m) if math.gcd(a, m) == 1]
        return primes.PrimeSubset(table, primes.ResidueClass(rng.choice(residues), m))
    if kind == 2:
        lo = rng.randrange(2, 200)
        return primes.PrimeSubset(table, primes.Interval(lo, lo + rng.randrange(50, 2000)))
    banned = frozenset(rng.sample(range(2, 100), rng.randrange(1, 10)))
    return primes.PrimeSubset(table, primes.Excluding(banned))


def check_theta_dominance(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    everything = primes.all_primes(table)
    for _ in range(cases):
        ps = _random_subset(rng, table)
        lo = rng.uniform(1, 5000)
        hi = lo + rng.uniform(10, 5000)
        sub = primes.subset_sums(ps, lo, hi)
        full = primes.subset_sums(everything, lo, hi)
        assert sub.theta <= full.theta + 1e-12
        assert sub.mertens_log <= full.mertens_log + 1e-12
        assert sub.mertens_recip <= full.mertens_recip + 1e-12
    return cases


def check_range_splitting(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    for _ in range(cases):
        ps = _random_subset(rng, table)
        lo = rng.uniform(1, 3000)
        hi = lo + rng.uniform(20, 5000)
        mid = rng.uniform(lo + 1, hi - 1)
        whole = primes.subset_sums(ps, lo, hi)
        joined = primes.subset_sums(ps, lo, mid) + primes.subset_sums(ps, mid, hi)
        for a, b in (
            (whole.theta, joined.theta),
            (whole.mertens_log, joined.mertens_log),
            (whole.mertens_recip, joined.mertens_recip),
        ):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    return cases


def check_mobius_convolution(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        n = rng.randrange(1, 10**4)
        total = sum(arith.mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0), f"mobius convolution failed at {n}"
    return cases


def check_squarefree_enumeration(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    for _ in range(cases):
        ps = _random_subset(rng, table)
        bound = rng.randrange(10, 2000)
        got = [q for q, _ in arith.enumerate_squarefree_supported(ps, bound)]
        brute = []
        for q in range(1, bound + 1):
            factors = arith.factorize(q)
            if all(e == 1 for _, e in factors) and all(
                ps.contains(p) for p, _ in factors
            ):
                brute.append(q)
        assert got == brute, f"squarefree enumeration mismatch for bound {bound}"
    return cases


def check_comparison_inequality(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**4)
    small_primes = table.primes_between(1, 100).tolist()
    for _ in range(cases):
        support = rng.sample(small_primes, rng.randrange(1, 8))
        g_vals, f_vals = {}, {}
        for p in support:
            g_vals[p] = rng.uniform(0.0, min(p - 1e-6, 8.0))
            f_vals[p] = rng.uniform(0.0, g_vals[p])
        f = arith.MultiplicativeSpec(f_vals)
        g = arith.MultiplicativeSpec(g_vals)
        bound = rng.randrange(50, 10**4)
        res = arith.check_comparison_inequality(f, g, bound, table=table)
        assert res.holds, f"comparison inequality violated: {res}"
    return cases


def check_larger_sieve(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    for _ in range(cases):
        n_limit = rng.randrange(200, 5000)
        k = rng.randrange(3, 60)
        a = IntegerSet(rng.sample(range(1, n_limit + 1), k))
        lo = rng.randrange(2, 60)
        ps = primes.PrimeSubset(table, primes.Interval(lo, lo + rng.randrange(30, 600)))
        if ps.is_empty():
            continue
        report = sieves.larger_sieve_bound(sieves.occupancy(a, ps), ps, n_limit)
        if report.valid:
            assert report.bound >= len(a) - 1e-9, f"larger sieve violated: {report}"
    return cases


def check_large_sieve(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    candidates = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(cases):
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
        report = sieves.large_sieve_bound(sieves.OccupancyProfile(omega), x, q_limit)
        assert report.bound >= count - 1e-9, f"large sieve violated: {report}"
    return cases


def check_large_sieve_monotone(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        x = rng.randrange(100, 10000)
        q_limit = rng.randrange(3, 32)
        omega = {
            p: rng.randrange(1, p)
            for p in (2, 3, 5, 7, 11, 13)
            if p <= q_limit and rng.random() < 0.7
        }
        if not omega:
            continue
        base = sieves.large_sieve_bound(sieves.OccupancyProfile(omega), x, q_limit)
        p = rng.choice(sorted(omega))
        if omega[p] + 1 >= p:
            continue
        bumped = dict(omega)
        bumped[p] += 1
        after = sieves.large_sieve_bound(sieves.OccupancyProfile(bumped), x, q_limit)
        assert after.denominator_L >= base.denominator_L - 1e-12
        assert after.bound <= base.bound + 1e-9
    return cases


def check_selberg(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    for _ in range(cases):
        size = rng.randrange(100, 2000)
        start = rng.randrange(1, 5000)
        c_set = IntegerSet(range(start, start + size))
        k = rng.randrange(1, 5)
        shifts = rng.sample(range(0, start + size), k)
        lo = rng.randrange(5, 80)
        ps = primes.PrimeSubset(table, primes.Interval(lo, lo + rng.randrange(20, 200)))
        plist = ps.primes().tolist()
        if not plist:
            continue
        omega = sieves.OccupancyProfile(
            {p: rng.uniform(0.0, min(p - 1e-9, 3.0 * k)) for p in plist}
        )
        q_limit = rng.randrange(2, 25)
        report = sieves.selberg_bound(c_set, ps, shifts, omega, q_limit)
        assert report.bound >= report.sifted_count - 1e-6, f"selberg violated: {report}"
    return cases


def check_inverse_sieve(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**6)
    for _ in range(cases):
        x = rng.randrange(100, 10**5)
        k = rng.randrange(2, 30)
        a = IntegerSet(rng.sample(range(1, x + 1), min(k, x)))
        y = rng.uniform(10, 2000)
        ps = _random_subset(rng, table)
        rep = sieves.inverse_sieve_lower_bound(a, ps, y, x)
        assert rep.lhs >= rep.lower - 1e-9, f"inverse sieve violated: {rep}"
        assert rep.lhs >= rep.base_lower - 1e-9
    return cases


def check_psi_grid(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        x = rng.randrange(100, 30000)
        y = rng.randrange(2, 60)
        via_rec = smooth.psi(smooth.SmoothQuery(x, y))
        via_enum = int(smooth.enumerate_smooth(x, y).size)
        assert via_rec == via_enum, f"psi mismatch at ({x}, {y})"
    return cases


def check_psi_progressions(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        x = rng.randrange(100, 20000)
        y = rng.randrange(2, 40)
        d = rng.randrange(1, 50)
        total = sum(smooth.psi(smooth.SmoothQuery(x, y, d, a)) for a in range(d))
        assert total == smooth.psi(smooth.SmoothQuery(x, y))
    return cases


def check_dickman_identity(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        u = rng.uniform(1.0, 20.0)
        lhs = u * smooth.dickman_rho(u).rho
        pieces = []
        a = u - 1.0
        for brk in range(math.ceil(u - 1.0), math.ceil(u)):
            if brk > a:
                pieces.append((a, float(brk)))
                a = float(brk)
        pieces.append((a, u))
        total = 0.0
        for lo, hi in pieces:
            if hi <= lo:
                continue
            n = 256
            xs = np.linspace(lo, hi, n + 1)
            ys = np.array([smooth.dickman_rho(t).rho for t in xs])
            h = (hi - lo) / n
            total += h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        assert abs(lhs - total) <= 1e-8, f"dickman identity failed at u={u}"
    return cases


def check_semigroup_enumeration(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**6)
    for _ in range(cases):
        ps = _random_subset(rng, table)
        x = rng.randrange(50, 20000)
        got = semigroup.enumerate_q(ps, x).array()
        mask = np.ones(x + 1, dtype=bool)
        mask[0] = False
        for p in table.primes_between(1, x).tolist():
            if not ps.contains(p):
                mask[p::p] = False
        brute = np.flatnonzero(mask)
        assert np.array_equal(got, brute), f"semigroup enumeration mismatch at x={x}"
    return cases


def check_semigroup_nesting(rng: random.Random, cases: int) -> int:
    table = primes.prime_table(10**5)
    for _ in range(cases):
        lo = rng.randrange(2, 50)
        mid = lo + rng.randrange(10, 200)
        hi = mid + rng.randrange(10, 500)
        inner = primes.PrimeSubset(table, primes.Interval(lo, mid))
        outer = primes.PrimeSubset(table, primes.Interval(lo, hi))
        x = rng.randrange(100, 5000)
        q_inner = semigroup.enumerate_q(inner, x)
        q_outer = semigroup.enumerate_q(outer, x)
        assert q_inner.issubset(q_outer)
    return cases


def check_sumset_algebra(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        a = IntegerSet(rng.sample(range(0, 500), rng.randrange(1, 20)))
        b = IntegerSet(rng.sample(range(0, 500), rng.randrange(1, 20)))
        c = IntegerSet(rng.sample(range(0, 500), rng.randrange(1, 20)))
        ab = sumset(a, b)
        assert ab == sumset(b, a)
        assert sumset(ab, c) == sumset(a, sumset(b, c))
        assert len(ab) >= len(a) + len(b) - 1
        brute = sorted({x + y for x in a for y in b})
        assert list(ab) == brute
    return cases


def check_ruzsa(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        sets = [
            IntegerSet(rng.sample(range(0, 10**4), rng.randrange(1, 65)))
            for _ in range(3)
        ]
        res = ruzsa_check(*sets)
        assert res.holds, f"ruzsa inequality violated: {res}"
    return cases


def check_decomposition_round_trip(rng: random.Random, cases: int) -> int:
    for _ in range(cases):
        a = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
        b = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
        s = sumset(a, b)
        res = decompose_binary(s)
        assert res.decomposable, f"round trip failed for {a} + {b}"
        wa, wb = res.witness
        assert sumset(wa, wb) == s, "witness does not reproduce the set"
    return cases


ALL_CHECKS: dict[str, Callable[[random.Random, int], int]] = {
    "arith.comparison_inequality": check_comparison_inequality,
    "arith.mobius_convolution": check_mobius_convolution,
    "arith.squarefree_enumeration": check_squarefree_enumeration,
    "primes.range_splitting": check_range_splitting,
    "primes.theta_dominance": check_theta_dominance,
    "semigroup.enumeration": check_semigroup_enumeration,
    "semigroup.nesting": check_semigroup_nesting,
    "sieves.inverse_sieve": check_inverse_sieve,
    "sieves.large_sieve": check_large_sieve,
    "sieves.large_sieve_monotone": check_large_sieve_monotone,
    "sieves.larger_sieve": check_larger_sieve,
    "sieves.selberg": check_selberg,
    "smooth.dickman_identity": check_dickman_identity,
    "smooth.psi_grid": check_psi_grid,
    "smooth.psi_progressions": check_psi_progressions,
    "sumset.algebra": check_sumset_algebra,
    "sumset.round_trip": check_decomposition_round_trip,
    "sumset.ruzsa": check_ruzsa,
}

_DEFAULT_CASES = {
    "arith.mobius_convolution": 40,
    "arith.squarefree_enumeration": 10,
    "semigroup.enumeration": 10,
    "smooth.dickman_identity": 10,
    "smooth.psi_grid": 15,
    "smooth.psi_progressions": 15,
    "sumset.ruzsa": 60,
}


def run_all(seed: int, budget_seconds: float, cases_per_check: int = 25) -> list[dict]:
    """Run every batch (alphabetical) within the time budget; returns one
    summary record per batch with status run/failed/skipped."""
    import time

    start = time.monotonic()
    results = []
    for name in sorted(ALL_CHECKS):
        elapsed = time.monotonic() - start
        if elapsed >= budget_seconds:
            results.append({"name": name, "status": "skipped", "cases": 0})
            continue
        rng = random.Random(f"{seed}:{name}")
        cases = _DEFAULT_CASES.get(name, cases_per_check)
        try:
            ran = ALL_CHECKS[name](rng, cases)
            results.append({"name": name, "status": "pass", "cases": ran})
        except AssertionError as exc:
            results.append(
                {"name": name, "status": "fail", "cases": cases, "detail": str(exc)}
            )
    return results
