"""sieve-soundness: the criterion-1 instance mix, interleaved.

One op is one attempted instance: for the proposition machines that is
``density_ratio_c`` + ``build_context`` + the bound (which computes the exact
sifted count); for the lemma evaluators it is the occupancy profile and the
bound.  Instance distributions mirror the acceptance suite's criterion-1
batches.  Prime tables and the ``enumerate_q`` carriers are built in set-up.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from common import BaseWorkload, Op, Strata, weighted_cycle

NAME = "sieve-soundness"
# attempted instances per evaluator in the acceptance suite's criterion-1
# batches at their own seeds (1000 accepted instances each): every larger,
# large, selberg and smallkscs attempt is accepted, smallkbv needs 2767
# attempts and middlek 1011
CRITERION_1_ATTEMPTS = {"larger": 1000, "large": 1000, "selberg": 1000, "smallkscs": 1000,
                        "smallkbv": 2767, "middlek": 1011}
# ops of each kind per cycle, in those proportions: 4, 4, 4, 4, 11 and 4
WEIGHTS = {kind: round(4 * n / 1000) for kind, n in CRITERION_1_ATTEMPTS.items()}
RESIDUE_CLASSES = ((4, 1), (4, 3), (3, 1), (3, 2))
# the sifted count is recomputed independently for the first SAMPLE ops of
# each kind; a fixed number, so the inputs kept for the oracle take the same
# memory however many ops a run completes
SAMPLE = 6


class Workload(BaseWorkload):
    name = NAME
    opset_cycles = 8

    def setup(self, seed: int):
        import sumsieve as ss

        self.ss = ss
        self.table_main = ss.PrimeTable(10**6)
        self.table_small = ss.PrimeTable(10**4)
        self.carriers = {}
        for modulus, residue in RESIDUE_CLASSES:
            p0 = ss.PrimeSubset(self.table_main, ss.ResidueClass(residue, modulus))
            for x in (10**4, 2 * 10**4):
                banned = frozenset(p0.primes_in(1, x).tolist())
                carrier = ss.enumerate_q(ss.PrimeSubset(self.table_main, ss.Excluding(banned)), x)
                self.carriers[(residue, modulus, x)] = carrier.elements
        self.seen = {kind: 0 for kind in WEIGHTS}
        # the inputs that set the cost of the heavy kinds are stratified over
        # the ops of each kind in the op set
        self.strata = Strata()
        self.per_set = {kind: n * self.opset_cycles for kind, n in WEIGHTS.items()}

    def cycles(self, rng):
        makers = {
            "larger": self._larger,
            "large": self._large,
            "selberg": self._selberg,
            "smallkscs": lambda r: self._small_k(r, "smallkscs"),
            "smallkbv": lambda r: self._small_k(r, "smallkbv"),
            "middlek": self._middlek,
        }
        while True:
            yield weighted_cycle(rng, WEIGHTS, makers)

    def extra_metrics(self, records) -> dict:
        verified = sum(1 for _, out, _, _ in records if out and out.get("verified"))
        return {"sieves.verified_count": verified, "sieves.attempted_count": len(records)}

    def _sampled(self, kind: str) -> bool:
        self.seen[kind] += 1
        return self.seen[kind] <= SAMPLE

    # -- instance makers ----------------------------------------------------
    def _larger(self, rng) -> Op:
        ss = self.ss
        n_limit = rng.randrange(300, 4000)
        k = rng.randrange(3, 9)
        elems = rng.sample(range(1, n_limit + 1), k)
        hi = rng.randrange(1500, 4000)
        table = self.table_main

        def run():
            a = ss.IntegerSet(elems)
            ps = ss.PrimeSubset(table, ss.Interval(2, hi))
            rep = ss.larger_sieve_bound(ss.occupancy(a, ps), ps, n_limit)
            return _report(rep, verified=rep.valid)

        def check(out):
            # the sifted set of the larger sieve is A itself
            if out["verified"] and out["bound"] < len(elems) - 1e-9:
                return f"bound {out['bound']:.6g} below |A| = {len(elems)}"
            return None

        return Op("larger", (n_limit, sorted(elems), hi), run, check, _exact)

    def _large(self, rng) -> Op:
        ss = self.ss
        x = rng.randrange(500, 20000)
        q_limit = rng.randrange(2, 32)
        avoided = {}
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if p <= q_limit and rng.random() < 0.6:
                avoided[p] = rng.sample(range(p), rng.randrange(1, p))

        def run():
            omega = ss.OccupancyProfile({p: len(r) for p, r in avoided.items()})
            rep = ss.large_sieve_bound(omega, x, q_limit)
            return _report(rep, verified=rep.valid)

        def check(out):
            count = oracles.avoided_residue_count(x, avoided)
            if out["bound"] < count - 1e-9:
                return f"bound {out['bound']:.6g} below exact count {count}"
            return None

        return Op("large", (x, q_limit, avoided), run, check, _exact)

    def _selberg(self, rng) -> Op:
        ss = self.ss
        size = rng.randrange(150, 1500)
        start = rng.randrange(1, 4000)
        k = rng.randrange(1, 5)
        shifts = sorted(rng.sample(range(0, start + size), k))
        lo = rng.randrange(5, 80)
        hi = lo + rng.randrange(20, 150)
        primes = [p for p in oracles.prime_list(hi).tolist() if p > lo]
        omega = {p: rng.uniform(0.0, min(p - 1e-9, 3.0 * k)) for p in primes}
        q_limit = rng.randrange(2, 16)
        sampled = self._sampled("selberg")
        table = self.table_main

        def run():
            ps = ss.PrimeSubset(table, ss.Interval(lo, hi))
            rep = ss.selberg_bound(range(start, start + size), ps, shifts,
                                   ss.OccupancyProfile(omega), q_limit)
            return _report(rep, verified=rep.valid)

        def check(out):
            if out["bound"] < out["sifted"] - 1e-6:
                return f"bound {out['bound']:.6g} below sifted count {out['sifted']}"
            if sampled:
                ps_primes = np.asarray(primes, dtype=np.int64)
                expect = oracles.sifted_count_by_factoring(range(start, start + size), shifts, ps_primes)
                if expect != out["sifted"]:
                    return f"sifted count {out['sifted']} != reference {expect}"
            return None

        return Op("selberg", (size, start, shifts, lo, hi, q_limit), run, check, _exact)

    def _small_k(self, rng, kind: str) -> Op:
        ss = self.ss
        strata, per_set = self.strata, self.per_set[kind]
        if kind == "smallkscs":
            k = strata.randrange(rng, (kind, "k"), per_set, 2, 7)
            x = strata.choice(rng, (kind, "x"), per_set, (10**4, 2 * 10**4))
        else:
            k = strata.randrange(rng, (kind, "k"), per_set, 2, 6)
            x = 10**4
        modulus, residue = rng.choice([(4, 1), (4, 3), (3, 1), (3, 2)])
        carrier = self.carriers[(residue, modulus, x)]
        size = strata.randrange(rng, (kind, "size"), per_set, 800, 2200)
        elems = rng.sample(carrier, min(size, len(carrier)))
        k_target = rng.uniform(max(4 * k + 6, 25), 70)
        star_min = rng.uniform(4 * k + 1, min(58.0, k_target * 1.9))
        shifts = sorted(rng.sample(range(0, x), k))
        if kind == "smallkbv":
            if len(elems) > 1200:
                elems = rng.sample(elems, 900)
            q_limit = rng.randrange(28, 42)
        sampled = self._sampled(kind)
        kept = elems if sampled else None  # only sampled ops keep their inputs
        table = self.table_main
        star_exponent = math.log(star_min) / math.log(k_target)

        def run():
            s = ss.IntegerSet(elems)
            p0 = ss.PrimeSubset(table, ss.ResidueClass(residue, modulus))
            c = ss.density_ratio_c(p0, x, window_floor_exponent=0.3)
            profile = ss.scaled(
                k_coefficient=k_target * (len(s) / x) * c * c / math.log(x) ** 2,
                star_exponent=star_exponent,
                c_floor_exponent=0.3,
            )
            ctx = ss.build_context(s, s, p0, x, profile)
            if kind == "smallkscs":
                rep = ss.prop_smallkscs_bound(s, shifts, ctx)
            else:
                rep = ss.prop_smallkbv_bound(s, shifts, ctx, q_limit)
            out = _report(rep, verified=rep.valid and rep.hypotheses_ok)
            out["star_min"] = ctx.K**star_exponent
            return out

        def check(out):
            if out["verified"] and out["bound"] < out["sifted"]:
                return f"bound {out['bound']:.6g} below sifted count {out['sifted']}"
            if sampled:
                star = [p for p in oracles.prime_list(x).tolist()
                        if p % modulus == residue and p >= out["star_min"]]
                expect = oracles.sifted_count_by_factoring(
                    kept, shifts, np.asarray(star, dtype=np.int64))
                if expect != out["sifted"]:
                    return f"sifted count {out['sifted']} != reference {expect}"
            return None

        return Op(kind, (modulus, residue, x, len(elems), shifts), run, check, _exact)

    def _middlek(self, rng) -> Op:
        ss = self.ss
        x = 10**12
        per_set = self.per_set["middlek"]
        if self.strata.uniform(rng, ("middlek", "branch"), per_set) < 0.6:
            k = 2 if rng.random() < 0.7 else 3
            w_coeff = 0.5
        else:
            k = rng.randrange(10, 50)
            w_coeff = rng.uniform(2.0, 3.5)
        y1 = rng.uniform(360, 500) if k != 3 else rng.uniform(430, 500)
        y2 = rng.uniform(2.2 * y1, 0.95 * math.sqrt(x) / y1)
        size = self.strata.randrange(rng, ("middlek", "size"), per_set, 4000, 12000)
        elems = sorted(rng.sample(range(1, x), size))
        shifts = sorted(rng.sample(range(0, x), k))
        sampled = self._sampled("middlek")
        kept = elems if sampled else None
        table = self.table_small

        def run():
            ps = ss.PrimeSubset(table, ss.Interval(y1 / 2, y2))
            rep = ss.middlek_bound(elems, shifts, ps, x, y1, y2,
                                   profile=ss.scaled(window_coefficient=w_coeff))
            return _report(rep, verified=rep.valid and rep.hypotheses_ok)

        def check(out):
            if out["verified"] and out["bound"] < out["sifted"]:
                return f"bound {out['bound']:.6g} below sifted count {out['sifted']}"
            if sampled:
                primes = oracles.prime_list(10**4)
                ps_primes = primes[(primes > y1 / 2) & (primes <= y2)]
                expect = oracles.sifted_count_by_lookup(kept, shifts, ps_primes)
                if expect != out["sifted"]:
                    return f"sifted count {out['sifted']} != reference {expect}"
            return None

        return Op("middlek", (y1, y2, len(elems), elems[0], shifts), run, check, _exact)


def _report(rep, verified: bool) -> dict:
    return {
        "bound": rep.bound,
        "valid": rep.valid,
        "verified": bool(verified),
        "sifted": rep.sifted_count,
        "branch": rep.branch,
    }


def _exact(out):
    return [out["valid"], out["verified"], out["sifted"], out["branch"]]
