"""sumset-search: sumsets, the ternary inequality and decomposition search.

Criterion-4 Ruzsa triples, criterion-8 round trips, the exhaustive sweep over
subsets of [0, 12] (checked against a bitmask oracle), the sandwich variant
``decompose_binary_relative``, the ternary deduction, and large inputs:
decomposable sumsets of 200-900 elements (copies of a small A that do not
overlap) and random sets of 300-900 elements.
Pure ``sumset``: it never touches ``primes``.
"""

from __future__ import annotations

from functools import lru_cache

import oracles
from common import BaseWorkload, Op, Strata, array_digest, weighted_cycle

NAME = "sumset-search"
# ops of each kind per cycle.  The Ruzsa triples (0.2-40 ms) hold both the
# p50 rank (a fifth of the way into them) and the p90 rank (nine tenths of
# the way), away from the boundaries between kinds; the random large sets
# (20-300 ms) are the top 4% of ops.
WEIGHTS = {
    "ruzsa": 40, "round-trip": 6, "sweep": 12, "relative": 6, "ternary": 2,
    "large-decomposable": 3, "large-random": 3,
}
SWEEP_TOP = 12
# the independent cover search re-decides the first COVER_SAMPLE random large
# sets of a run; a fixed number, so the inputs kept for it take the same
# memory however many ops a run completes
COVER_SAMPLE = 8
UNVERIFIED = object()


class Workload(BaseWorkload):
    name = NAME
    opset_cycles = 3

    def setup(self, seed: int):
        import sumsieve as ss

        self.ss = ss
        self.covered = 0
        self.strata = Strata()

    def _range(self, rng, kind: str, name: str, lo: int, hi: int) -> int:
        """A stratified ``randrange`` over the ops of ``kind`` in the op set."""
        return self.strata.randrange(rng, (kind, name), WEIGHTS[kind] * self.opset_cycles, lo, hi)

    def cycles(self, rng):
        makers = {
            "ruzsa": self._ruzsa,
            "round-trip": self._round_trip,
            "sweep": self._sweep,
            "relative": self._relative,
            "ternary": self._ternary,
            "large-decomposable": self._large_decomposable,
            "large-random": self._large_random,
        }
        while True:
            yield weighted_cycle(rng, WEIGHTS, makers)

    def _ruzsa(self, rng) -> Op:
        ss = self.ss
        sets = [sorted(rng.sample(range(0, 10**4 + 1), self._range(rng, "ruzsa", i, 1, 65)))
                for i in range(3)]

        def run():
            res = ss.ruzsa_check(*sets)
            return res.lhs, res.rhs, res.holds

        def check(out):
            a, b, c = sets
            a_bits, b_bits = oracles.to_bits(a), oracles.to_bits(b)
            ab = oracles.bits_sum(a_bits, b)
            lhs = oracles.bits_sum(ab, c).bit_count() ** 2
            rhs = (ab.bit_count() * oracles.bits_sum(a_bits, c).bit_count()
                   * oracles.bits_sum(b_bits, c).bit_count())
            if out != (lhs, rhs, lhs <= rhs) or not out[2]:
                return f"ruzsa {out}, reference {(lhs, rhs)}"
            return None

        return Op("ruzsa", sets, run, check, lambda out: list(out))

    def _decompose_op(self, kind, elems, expect_decomposable=None) -> Op:
        """decompose_binary on elems; the verdict is checked against
        ``expect_decomposable`` (a value, a callable, None for the cover
        oracle, which then keeps elems, or UNVERIFIED) and any witness is
        re-summed against a digest of the set."""
        ss = self.ss
        digest = array_digest(elems)
        kept = elems if expect_decomposable is None else None

        def run():
            res = ss.decompose_binary(elems)
            witness = None
            if res.witness is not None:
                witness = tuple(list(part.elements) for part in res.witness)
            return res.decomposable, witness, res.nodes_explored

        def check(out):
            decomposable, witness, _ = out
            if expect_decomposable is None:
                expect = oracles.decomposable_by_cover(kept)
            elif expect_decomposable is UNVERIFIED:
                expect = decomposable
            elif callable(expect_decomposable):
                expect = expect_decomposable()
            else:
                expect = expect_decomposable
            if decomposable != expect:
                return f"decomposable = {decomposable}, reference {expect}"
            if decomposable:
                wa, wb = witness
                if len(wa) < 2 or len(wb) < 2:
                    return "witness part below the minimum size"
                if array_digest(sorted(oracles.sumset_values(wa, wb))) != digest:
                    return "witness does not re-sum to the set"
            return None

        return Op(kind, elems if len(elems) <= 64 else (len(elems), elems[:8]), run, check,
                  lambda out: [out[0], out[2]])

    def _round_trip(self, rng) -> Op:
        a = rng.sample(range(0, 200), rng.randrange(2, 9))
        b = rng.sample(range(0, 200), rng.randrange(2, 9))
        return self._decompose_op("round-trip", sorted(oracles.sumset_values(a, b)), True)

    def _sweep(self, rng) -> Op:
        while True:
            mask = rng.randrange(1, 1 << (SWEEP_TOP + 1))
            if mask & (mask - 1):
                break
        elems = [i for i in range(SWEEP_TOP + 1) if mask >> i & 1]
        normalised = mask >> elems[0]
        return self._decompose_op("sweep", elems,
                                  lambda: normalised in _decomposable_masks(SWEEP_TOP))

    def _relative(self, rng) -> Op:
        ss = self.ss
        a = rng.sample(range(0, 100), rng.randrange(2, 7))
        b = rng.sample(range(0, 100), rng.randrange(2, 7))
        ab = sorted(oracles.sumset_values(a, b))
        # at most 20 extra elements and s0 at least 30% of A + B: with a
        # one-element s0 and 40 extra elements one search took 43 s, which
        # would swamp every other op of the workload
        extra = self._range(rng, "relative", "extra", 0, 21)
        s = sorted(set(ab) | set(rng.sample(range(0, 200), extra)))
        share = self._range(rng, "relative", "share", 300, 1001) / 1000
        s0 = sorted(rng.sample(ab, max(1, int(len(ab) * share))))

        def run():
            res = ss.decompose_binary_relative(s0, s)
            witness = None
            if res.witness is not None:
                witness = tuple(list(part.elements) for part in res.witness)
            return res.decomposable, witness, res.nodes_explored

        def check(out):
            decomposable, witness, _ = out
            # A + B itself sandwiches s0, so a witness must exist
            if not decomposable:
                return "no sandwich found although A + B is one"
            wa, wb = witness
            sums = oracles.sumset_values(wa, wb)
            if len(wa) < 2 or len(wb) < 2 or not set(s0) <= sums <= set(s):
                return "witness does not sandwich s0 and s"
            return None

        return Op("relative", (s0, s), run, check, lambda out: [out[0], out[2]])

    def _ternary(self, rng) -> Op:
        ss = self.ss
        elems = sorted(rng.sample(range(0, 5000), rng.randrange(10, 400)))
        bound = rng.uniform(5.0, 60.0)

        def check(out):
            expect = len(elems) ** 2 > bound**3
            return None if out == expect else f"impossible = {out}, reference {expect}"

        return Op("ternary", (elems, bound),
                  lambda: ss.decompose_ternary_via_ruzsa(elems, bound).impossible,
                  check, lambda out: out)

    def _large_decomposable(self, rng) -> Op:
        # B's gaps exceed max(A), so the copies A + b do not overlap: when
        # they may overlap the search cost has a heavy tail (one instance of
        # A in [0, 60), B random in [0, 4000) took 25 s) that would swamp
        # every other op of the run
        while True:
            a = rng.sample(range(0, 60), rng.randrange(3, 12))
            b = [0]
            for _ in range(self._range(rng, "large-decomposable", "b", 20, 120) - 1):
                b.append(b[-1] + rng.randrange(max(a) + 1, 300))
            elems = sorted(oracles.sumset_values(a, b))
            if 200 <= len(elems) <= 900:
                return self._decompose_op("large-decomposable", elems, True)

    def _large_random(self, rng) -> Op:
        # sizes stratified over 300-900 in turn: these ops carry half the
        # workload's time, and their cost grows faster than the size
        low = 300 + 200 * (self.covered % 3)
        n = rng.randrange(low, low + 201)
        elems = sorted(rng.sample(range(0, 3 * n), n))
        self.covered += 1
        if self.covered <= COVER_SAMPLE:
            return self._decompose_op("large-random", elems)
        # past the sample a verdict of decomposable is still checked
        # through its witness; not decomposable is taken as reported
        return self._decompose_op("large-random", elems, UNVERIFIED)


@lru_cache(maxsize=1)
def _decomposable_masks(top: int) -> frozenset:
    return frozenset(oracles.decomposable_masks(top))
