"""multiplicative: smooth numbers, Dickman rho, semigroups and the
multiplicative comparison inequality.

Exact ``psi`` on the criterion-5 grid (and at x = 10^7), progression
families and ``psi_coprime``, ``enumerate_smooth``, ``bv_discrepancy_sum``
(one op per cycle must raise ``CapacityError`` with ``partial_sum`` set, the
documented outcome) and ``smooth_tuple_count`` up to 10^7; ``dickman_rho``
over [0, 100] in seeded order; ``enumerate_q``, ``estimate_tau`` and
``verify_hypotheses_wirsing`` up to 10^7; criterion-3 comparison pairs.  The
op set is six cycles; the ops at x = 10^7 that cost a large share of it come
one per cycle in the first three, with fixed parameters, so that the seed
moves the mix of small ops and not the cost of the largest ones.

The Dickman mesh grows only on the first pass over the op set; growing it
to u = 500 costs about 11 s, more than half a run, so the queries stop at
u = 100 (about 2 s of growth).  ``cli-cold`` pays mesh growth in every
process, and the traced run records it as ``smooth.dickman_rho.max_call_ms``.
The u = 20 anchor, a known defect, is a probe: it runs once per timed run
and is reported apart from the ops.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

import oracles
from common import BaseWorkload, Op, Strata, array_digest, weighted_cycle

NAME = "multiplicative"
WEIGHTS = {
    "psi": 8, "psi-1e7": 1, "enumerate-smooth": 3, "progressions": 2, "psi-coprime": 2,
    "bv-sum": 2, "bv-capacity": 1, "tuple-count": 2, "dickman-low": 3, "dickman": 7,
    "enumerate-q": 3, "estimate-tau": 2, "wirsing": 2, "comparison": 4, "big": 1,
}
# the op set holds one of each of these x = 10^7 ops, with fixed parameters
BIG_ROTATION = (
    ("tuple-count-1e7", (10, (0, 1))),
    ("enumerate-q-large", (1, 8)),
    ("enumerate-smooth-1e7", 30),
)
LIGHT_WEIGHTS = {kind: n for kind, n in WEIGHTS.items() if kind != "big"}
GRID_X = (10**3, 10**4, 10**5, 10**6)
GRID_Y = (2, 3, 5, 10, 30, 100)
# the op set's 48 psi ops are the whole criterion-5 grid twice, in seeded order
GRID = tuple((x, y) for x in GRID_X for y in GRID_Y)
# smooth-number oracles slice one mask per y, built up to the smaller of
# these limits that covers x plus the largest tuple shift
SMOOTH_LIMITS = (10**6 + 64, 10**7 + 64)
RHO_TOP = 100.0
RESIDUE_SELECTORS = ((1, 4), (3, 4), (1, 3), (2, 3), (1, 8), (3, 8), (5, 8), (1, 5))


class Workload(BaseWorkload):
    name = NAME
    opset_cycles = 2 * len(BIG_ROTATION)

    def setup(self, seed: int):
        import sumsieve as ss

        self.ss = ss
        self.table_deep = ss.PrimeTable(10**7)
        self.table_small = ss.PrimeTable(10**4)
        self.rho_seen: list[tuple[float, float]] = []
        self.comparisons = 0
        self.bv_ops = 0
        self.strata = Strata()

    def _pick(self, rng, kind: str, name: str, seq):
        """A stratified choice over the ops of ``kind`` in the op set."""
        return self.strata.choice(rng, (kind, name), WEIGHTS[kind] * self.opset_cycles, seq)

    def _range(self, rng, kind: str, name: str, lo: int, hi: int) -> int:
        """A stratified ``randrange`` over the ops of ``kind`` in the op set."""
        return self.strata.randrange(rng, (kind, name), WEIGHTS[kind] * self.opset_cycles, lo, hi)

    def cycles(self, rng):
        makers = {
            "psi": lambda r: self._psi(*self._pick(r, "psi", "grid", GRID), "psi"),
            "psi-1e7": lambda r: self._psi(10**7, self._pick(r, "psi-1e7", "y", (10, 100)),
                                           "psi-1e7"),
            "enumerate-smooth": lambda r: self._enumerate(
                self._pick(r, "enumerate-smooth", "x", GRID_X),
                self._pick(r, "enumerate-smooth", "y", GRID_Y), "enumerate-smooth"),
            "progressions": self._progressions,
            "psi-coprime": self._coprime,
            "bv-sum": self._bv,
            "bv-capacity": self._bv_capacity,
            "tuple-count": lambda r: self._tuple(
                self._range(r, "tuple-count", "x", 10**4, 10**6),
                self._pick(r, "tuple-count", "y", (10, 30)),
                sorted(r.sample(range(0, 50), self._range(r, "tuple-count", "k", 1, 4))),
                "tuple-count"),
            "enumerate-q": lambda r: self._enumerate_q(
                self._range(r, "enumerate-q", "x", 10**4, 10**5), *self._selector(r),
                "enumerate-q"),
            "estimate-tau": self._tau,
            "wirsing": self._wirsing,
            "comparison": self._comparison,
            "dickman-low": lambda r: self._dickman(20.0 * r.random()),
            "dickman": lambda r: self._dickman(20.0 + (RHO_TOP - 20.0) * r.random()),
        }
        cycle = 0
        while True:
            # the x = 10^7 ops come one per cycle in the first cycles only
            weights = LIGHT_WEIGHTS
            if cycle < len(BIG_ROTATION):
                big_kind, params = BIG_ROTATION[cycle]
                makers["big"] = lambda r, k=big_kind, p=params: self._big(k, p)
                weights = WEIGHTS
            yield weighted_cycle(rng, weights, makers)
            cycle += 1

    def probes(self) -> list:
        return [self._dickman(20.0, anchor=True)]

    def _big(self, kind, params) -> Op:
        if kind == "tuple-count-1e7":
            y, shifts = params
            return self._tuple(10**7, y, list(shifts), kind)
        if kind == "enumerate-q-large":
            residue, modulus = params
            return self._enumerate_q(10**7, self.ss.ResidueClass(residue, modulus),
                                     ("ap", residue, modulus), kind)
        return self._enumerate(10**7, params, kind)

    # -- smooth numbers -------------------------------------------------------
    def _psi(self, x, y, kind) -> Op:
        ss = self.ss

        def check(out):
            expect = int(oracles.smooth_mask(_limit(x), y)[: x + 1].sum())
            return None if out == expect else f"psi({x},{y}) = {out}, reference {expect}"

        return Op(kind, (x, y), lambda: ss.psi(ss.SmoothQuery(x, y)), check, lambda out: out)

    def _enumerate(self, x, y, kind) -> Op:
        ss = self.ss

        def check(out):
            size, digest = out
            expect = oracles.smooth_values(x, y, _limit(x))
            if size != expect.size or digest != array_digest(expect):
                return f"enumerate_smooth({x},{y}) differs from the reference ({size} vs {expect.size})"
            return None

        return Op(kind, (x, y), lambda: ss.enumerate_smooth(x, y), check,
                  lambda out: out[0], compact=lambda arr: (int(arr.size), array_digest(arr)))

    def _progressions(self, rng) -> Op:
        ss = self.ss
        x = self._range(rng, "progressions", "x", 100, 2 * 10**4)
        y = self._range(rng, "progressions", "y", 2, 40)
        d = self._range(rng, "progressions", "d", 2, 40)

        def run():
            parts = [ss.psi(ss.SmoothQuery(x, y, d, a)) for a in range(d)]
            return parts, ss.psi(ss.SmoothQuery(x, y))

        def check(out):
            parts, whole = out
            if sum(parts) != whole:
                return f"progressions mod {d} sum to {sum(parts)}, psi = {whole}"
            values = oracles.smooth_values(x, y, x)
            expect = np.bincount(values % d, minlength=d).tolist()
            return None if parts == expect else f"progression counts mod {d} differ from the reference"

        return Op("progressions", (x, y, d), run, check, lambda out: out)

    def _coprime(self, rng) -> Op:
        ss = self.ss
        x = self._pick(rng, "psi-coprime", "x", GRID_X[1:])
        y = self._pick(rng, "psi-coprime", "y", GRID_Y)
        d = self._range(rng, "psi-coprime", "d", 2, 2000)

        def check(out):
            values = oracles.smooth_values(x, y, _limit(x))
            expect = int((np.gcd(values, d) == 1).sum())
            return None if out == expect else f"psi_coprime = {out}, reference {expect}"

        return Op("psi-coprime", (x, y, d), lambda: ss.psi_coprime(ss.SmoothQuery(x, y), d),
                  check, lambda out: out)

    def _bv_instance(self, rng):
        x = rng.randrange(10**4, 10**5)
        y = rng.choice((10, 20, 30))
        lo = rng.randrange(y, 60)
        hi = lo + rng.randrange(30, 120)
        return x, y, lo, hi, rng.randrange(20, 80), rng.randrange(1, 4)

    def _bv(self, rng) -> Op:
        ss = self.ss
        x, y, lo, hi, q_limit, k = self._bv_instance(rng)
        sampled = self.bv_ops < 3 or self.bv_ops % 4 == 0
        self.bv_ops += 1
        table = self.table_deep

        def run():
            ps = ss.PrimeSubset(table, ss.Interval(lo, hi))
            total, breakdown = ss.bv_discrepancy_sum(ss.SmoothQuery(x, y), ps, q_limit, k)
            return total, len(breakdown)

        def check(out):
            total, moduli = out
            if not sampled:
                return None if math.isfinite(total) and total >= 0 else f"total {total}"
            support = [p for p in oracles.prime_list(hi).tolist() if p > lo]
            expect = oracles.bv_total(oracles.smooth_values(x, y, _limit(x)), support, q_limit, k)
            if not math.isclose(total, expect, rel_tol=1e-9, abs_tol=1e-9):
                return f"bv total {total!r}, reference {expect!r}"
            return None

        return Op("bv-sum", (x, y, lo, hi, q_limit, k), run, check, lambda out: out[1])

    def _bv_capacity(self, rng) -> Op:
        ss = self.ss
        x, y, lo, hi, q_limit, k = self._bv_instance(rng)
        table = self.table_deep
        cap = 20_000

        def run():
            ps = ss.PrimeSubset(table, ss.Interval(lo, hi))
            return ss.bv_discrepancy_sum(ss.SmoothQuery(x, y), ps, 90, k, modulus_work_cap=cap)

        def check(out):
            if not isinstance(out, dict) or out.get("raised") != "CapacityError":
                return "a modulus budget far below the work did not raise CapacityError"
            partial = out["info"].get("partial_sum")
            if not isinstance(partial, float) or not partial >= 0:
                return f"CapacityError without a partial sum ({partial!r})"
            return None

        return Op("bv-capacity", (x, y, lo, hi, k), run, check,
                  lambda out: out.get("raised") if isinstance(out, dict) else None,
                  expect="CapacityError")

    def _tuple(self, x, y, shifts, kind) -> Op:
        ss = self.ss

        def check(out):
            mask = oracles.smooth_mask(_limit(x), y)
            keep = np.ones(x, dtype=bool)
            for a in shifts:
                keep &= mask[1 + a : x + a + 1]
            expect = int(keep.sum())
            return None if out == expect else f"tuple count {out}, reference {expect}"

        return Op(kind, (x, y, shifts), lambda: ss.smooth_tuple_count(x, y, shifts).count,
                  check, lambda out: out)

    # -- Dickman rho ----------------------------------------------------------
    def _dickman(self, u: float, anchor: bool = False) -> Op:
        ss = self.ss

        def compact(val):
            self.rho_seen.append((u, val.rho))
            return val.rho, val.log_rho

        def check(out):
            rho, log_rho = out
            if not (math.isfinite(rho) and math.isfinite(log_rho) and 0.0 <= rho <= 1.0):
                return f"rho({u}) = {rho!r} not a finite value in [0, 1]"
            if anchor:
                rel = abs(log_rho - oracles.LOG_RHO_20) / abs(oracles.LOG_RHO_20)
                if rel > 1e-4:
                    return (f"log_rho(20) = {log_rho:.6g}, published {oracles.LOG_RHO_20} "
                            f"(relative error {rel:.3g})")
            if u <= 20.0:
                err = abs(rho - float(oracles.dickman_rho(u)))
                if err > 1e-9:
                    return f"rho({u}) absolute error {err:.3g} above 1e-9"
            elif rho > 1e-9:
                # rho(u) < 2.5e-29 past 20, so the absolute contract caps it
                return f"rho({u}) = {rho:.3g} breaks the absolute contract"
            seen = sorted(self.rho_seen)
            i = bisect.bisect_left(seen, (u, -1.0))
            if any(r < rho for _, r in seen[:i]) or any(r > rho for v, r in seen[i:] if v > u):
                return f"rho not monotone around u = {u}"
            return None

        return Op("dickman-anchor" if anchor else "dickman", (u,), lambda: ss.dickman_rho(u),
                  check, lambda out: None, compact=compact)

    # -- semigroups -------------------------------------------------------------
    def _selector(self, rng):
        ss = self.ss
        kind = self._range(rng, "enumerate-q", "selector", 0, 3)
        if kind == 0:
            residue, modulus = rng.choice(RESIDUE_SELECTORS)
            return ss.ResidueClass(residue, modulus), ("ap", residue, modulus)
        if kind == 1:
            lo = rng.randrange(2, 60)
            hi = lo + rng.randrange(20, 500)
            return ss.Interval(lo, hi), ("interval", lo, hi)
        banned = frozenset(rng.sample(range(2, 80), rng.randrange(2, 12)))
        return ss.Excluding(banned), ("not", tuple(sorted(banned)))

    def _enumerate_q(self, x, selector, desc, kind) -> Op:
        ss = self.ss
        table = self.table_deep

        def check(out):
            size, digest = out
            expect_size, expect_digest = _marking_reference(x, desc)
            if size != expect_size or digest != expect_digest:
                return f"enumerate_q differs from the marking filter ({size} vs {expect_size})"
            return None

        return Op(kind, (x, desc), lambda: ss.enumerate_q(ss.PrimeSubset(table, selector), x).elements,
                  check, lambda out: out[0], compact=lambda el: (len(el), array_digest(el)))

    def _tau_inputs(self, rng, kind):
        residue, modulus = rng.choice(RESIDUE_SELECTORS)
        return residue, modulus, self._range(rng, kind, "x", 10**5, 10**7)

    def _tau(self, rng) -> Op:
        ss = self.ss
        residue, modulus, x = self._tau_inputs(rng, "estimate-tau")
        table = self.table_deep

        def run():
            stats = ss.estimate_tau(ss.PrimeSubset(table, ss.ResidueClass(residue, modulus)), x)
            return stats.tau_hat, stats.C_hat

        def check(out):
            tau, c_hat = out
            expect_tau, expect_c = _tau_reference(residue, modulus, x)
            if not (math.isclose(tau, expect_tau, rel_tol=1e-9, abs_tol=1e-12)
                    and math.isclose(c_hat, expect_c, rel_tol=1e-9, abs_tol=1e-12)):
                return f"tau fit ({tau!r}, {c_hat!r}), reference ({expect_tau!r}, {expect_c!r})"
            return None

        return Op("estimate-tau", (residue, modulus, x), run, check, lambda out: None)

    def _wirsing(self, rng) -> Op:
        ss = self.ss
        residue, modulus, x = self._tau_inputs(rng, "wirsing")
        table = self.table_deep

        def run():
            rep = ss.verify_hypotheses_wirsing(ss.PrimeSubset(table, ss.ResidueClass(residue, modulus)), x)
            return rep.tau_hat, [(c.name, c.status) for c in rep.checks]

        def check(out):
            tau, checks = out
            names = [name for name, _ in checks]
            if names != ["mertens_sum_linear", "prime_values_bounded",
                         "prime_power_tail_converges", "square_and_higher_powers_sparse"]:
                return f"unexpected hypothesis checks {names}"
            if any(status not in ("pass", "marginal", "fail") for _, status in checks):
                return "unknown hypothesis status"
            expect_tau, _ = _tau_reference(residue, modulus, x)
            if not math.isclose(tau, expect_tau, rel_tol=1e-9, abs_tol=1e-12):
                return f"tau_hat {tau!r}, reference {expect_tau!r}"
            return None

        return Op("wirsing", (residue, modulus, x), run, check, lambda out: out[1])

    # -- arith ------------------------------------------------------------------
    def _comparison(self, rng) -> Op:
        ss = self.ss
        primes = [p for p in oracles.prime_list(100).tolist()]
        support = rng.sample(primes, self._range(rng, "comparison", "support", 1, 9))
        g_vals = {p: rng.uniform(0.0, min(p - 1e-6, 12.0)) for p in support}
        f_vals = {p: rng.uniform(0.0, g_vals[p]) for p in support}
        bound = self._range(rng, "comparison", "bound", 50, 10**4 + 1)
        sampled = self.comparisons < 3 or self.comparisons % 4 == 0
        self.comparisons += 1
        table = self.table_small

        def run():
            res = ss.check_comparison_inequality(
                ss.MultiplicativeSpec(f_vals), ss.MultiplicativeSpec(g_vals), bound, table=table)
            return res.lhs, res.rhs, res.holds

        def check(out):
            lhs, rhs, holds = out
            if not holds or lhs < rhs - 1e-9:
                return f"comparison inequality fails: lhs {lhs!r} < rhs {rhs!r}"
            if sampled:
                expect = oracles.complete_multiplicative_sum(f_vals, bound)
                if not math.isclose(lhs, expect, rel_tol=1e-9):
                    return f"lhs {lhs!r}, reference {expect!r}"
            return None

        return Op("comparison", (support, bound), run, check, lambda out: out[2])


@lru_cache(maxsize=None)
def _marking_reference(x: int, desc) -> tuple[int, str]:
    expect = oracles.marking_filter(x, _accepts(desc))
    return int(expect.size), array_digest(expect)


def _accepts(desc):
    if desc[0] == "ap":
        _, residue, modulus = desc
        return lambda p: p % modulus == residue
    if desc[0] == "interval":
        _, lo, hi = desc
        return lambda p: lo < p <= hi
    banned = set(desc[1])
    return lambda p: p not in banned


def _limit(x: int) -> int:
    return next(limit for limit in SMOOTH_LIMITS if x + 64 <= limit)


@lru_cache(maxsize=None)
def _mertens_class(residue: int, modulus: int):
    """Primes p = residue mod modulus up to 10^7 and the running sums of
    log p / p (with a leading 0)."""
    primes = oracles.prime_list(10**7)
    primes = primes[primes % modulus == residue].astype(np.float64)
    return primes, np.concatenate(([0.0], np.cumsum(np.log(primes) / primes)))


def _tau_reference(residue: int, modulus: int, x: int):
    """Least-squares fit of sum_{p <= t} log p / p against log t on 32
    log-spaced points of [x^(1/4), x], over primes p = residue mod modulus."""
    primes, cumulative = _mertens_class(residue, modulus)
    mesh = np.exp(np.linspace(math.log(x) / 4.0, math.log(x), 32))
    sums = cumulative[np.searchsorted(primes, mesh, side="right")]
    slope, intercept = np.polyfit(np.log(mesh), sums, 1)
    return float(slope), float(intercept)
