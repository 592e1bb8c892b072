import importlib
import inspect
import random
import sys

import numpy as np
import pytest

from sumsieve import primes
from sumsieve.errors import CapacityError, DomainError
from sumsieve.sumset import (
    IntegerSet,
    decompose_binary,
    decompose_binary_relative,
    decompose_ternary_via_ruzsa,
    ruzsa_check,
    sumset,
)

# the layer module: the package's name `sumset` is the function
sumset_module = importlib.import_module("sumsieve.sumset")


class TestIntegerSet:
    def test_sorted_dedup(self):
        s = IntegerSet([5, 1, 5, 3])
        assert s.elements == (1, 3, 5)
        assert 3 in s and 2 not in s

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            IntegerSet([-1, 2])

    def test_one_read_only_array(self):
        s = IntegerSet(np.array([9, 2, 9, 4, 2], dtype=np.int32))
        arr = s.array()
        assert arr.dtype == np.int64 and arr.tolist() == [2, 4, 9]
        with pytest.raises(ValueError):
            arr[0] = 7
        assert IntegerSet.__slots__ == ("_values",)
        assert all(type(v) is int for v in s) and s.elements == (2, 4, 9)
        assert (s.min, s.max, len(s)) == (2, 9, 3)
        # the caller's array is copied, never aliased
        source = np.array([3, 1], dtype=np.int64)
        t = IntegerSet(source)
        source[0] = 0
        assert t.elements == (1, 3)

    def test_equality_hash_membership_subset(self):
        a, b = IntegerSet(range(5)), IntegerSet([4, 3, 2, 1, 0, 0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != IntegerSet([0, 1, 2, 3]) and a != (0, 1, 2, 3, 4)
        assert 0 in a and 4 in a and 5 not in a and 2**70 not in a
        assert IntegerSet([]).issubset(IntegerSet([]))
        assert IntegerSet([1, 3]).issubset(a) and not IntegerSet([1, 5]).issubset(a)
        assert not IntegerSet([7]).issubset(IntegerSet([]))
        assert IntegerSet(()).elements == () and len(IntegerSet(range(0))) == 0

    def test_rejects_values_outside_int64(self):
        IntegerSet([0, 2**63 - 1])
        for bad in ([0, 2**63], [10**20], [-(2**63) - 1], [-5]):
            with pytest.raises(DomainError):
                IntegerSet(bad)
        with pytest.raises(DomainError):
            IntegerSet(np.array([[1, 2], [3, 4]]))


class TestSumset:
    def test_examples(self):
        assert sumset([0, 1], [0, 2]).elements == (0, 1, 2, 3)
        a = IntegerSet([3, 7, 9])
        assert sumset(a, [0]) == a

    def test_sum_beyond_int64_is_refused(self):
        top = 2**62
        assert sumset([0, top - 1], [0, top]).max == 2**63 - 1
        # in int64 these wrap to -2^63 and -8446744073709551616
        with pytest.raises(DomainError, match=r"2\^63"):
            sumset([0, top], [0, top])
        with pytest.raises(DomainError, match=r"2\^63"):
            sumset([0, 5 * 10**18], [0, 5 * 10**18])
        with pytest.raises(DomainError):
            ruzsa_check([0, 1], [0, 1], [0, 2**63 - 1])

    def test_matches_double_loop(self):
        rng = random.Random(1)
        for _ in range(50):
            a = rng.sample(range(0, 2000), rng.randrange(1, 51))
            b = rng.sample(range(0, 2000), rng.randrange(1, 51))
            got = sumset(a, b).elements
            brute = tuple(sorted({x + y for x in a for y in b}))
            assert got == brute

    def test_row_blocks_merge_to_the_same_set(self, monkeypatch):
        rng = random.Random(5)
        cases = [(rng.sample(range(0, 2000), rng.randrange(1, 60)),
                  rng.sample(range(0, 2000), rng.randrange(1, 60))) for _ in range(30)]
        for block_bytes, cap in ((8, 10**6 // 8), (100, 10**6 // 8), (1000, 2000 // 8)):
            monkeypatch.setattr(primes, "BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(primes, "VALUE_CAP", cap)
            for a, b in cases:
                brute = tuple(sorted({x + y for x in a for y in b}))
                if len(brute) > cap:
                    with pytest.raises(CapacityError):
                        sumset(a, b)
                else:
                    assert sumset(a, b).elements == brute

    def test_marked_range_and_blocked_merge_agree(self, monkeypatch):
        # sums spanning at most BLOCK_BYTES integers are marked in a bool
        # range, wider ones merged block by block
        rng = random.Random(7)
        monkeypatch.setattr(primes, "BLOCK_BYTES", 1000)
        spans = []
        for _ in range(40):
            a = rng.sample(range(0, 600), rng.randrange(1, 40))
            b = rng.sample(range(0, 600), rng.randrange(1, 40))
            spans.append(max(a) + max(b) - min(a) - min(b) + 1)
            assert sumset(a, b).elements == tuple(sorted({x + y for x in a for y in b}))
        assert min(spans) <= 1000 < max(spans)
        monkeypatch.setattr(primes, "VALUE_CAP", 100)
        assert len(sumset(range(50), range(51))) == 100
        with pytest.raises(CapacityError):
            sumset(range(60), range(60))  # 119 sums in a span of 119

    def test_commutative_associative(self):
        rng = random.Random(2)
        for _ in range(100):
            a = IntegerSet(rng.sample(range(0, 300), rng.randrange(1, 12)))
            b = IntegerSet(rng.sample(range(0, 300), rng.randrange(1, 12)))
            c = IntegerSet(rng.sample(range(0, 300), rng.randrange(1, 12)))
            assert sumset(a, b) == sumset(b, a)
            assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))

    def test_size_lower_bound(self):
        rng = random.Random(3)
        for _ in range(100):
            a = IntegerSet(rng.sample(range(0, 10**4), rng.randrange(1, 40)))
            b = IntegerSet(rng.sample(range(0, 10**4), rng.randrange(1, 40)))
            assert len(sumset(a, b)) >= len(a) + len(b) - 1


class TestRuzsa:
    def test_examples(self):
        res = ruzsa_check([0, 1], [0, 1], [0, 1])
        assert (res.lhs, res.rhs, res.holds) == (16, 27, True)
        res = ruzsa_check([3], [5], [9])
        assert res.lhs == res.rhs == 1

    def test_random_triples(self):
        rng = random.Random(4)
        for _ in range(200):
            sets = [
                IntegerSet(rng.sample(range(0, 10**4), rng.randrange(1, 65)))
                for _ in range(3)
            ]
            assert ruzsa_check(*sets).holds

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ruzsa_check([], [0], [1])


def bitmask_decomposables(top: int) -> set:
    """Oracle: every sumset A+B inside [0, top] with both parts >= 2,
    as bitmasks, by direct enumeration of all pairs."""
    b_masks = np.array(
        [m for m in range(1, 1 << (top + 1)) if m & 1], dtype=np.uint64
    )
    b_pop = np.array([bin(m).count("1") for m in b_masks])
    limit = np.uint64(1 << (top + 1))
    out = set()
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
            out.add(int(m))
    return out


class TestDecomposeBinary:
    def test_progression(self):
        res = decompose_binary([0, 1, 2, 3])
        assert res.decomposable
        a, b = res.witness
        assert a.min == 0
        assert sumset(a, b).elements == (0, 1, 2, 3)

    def test_three_term_non_progression(self):
        res = decompose_binary([0, 1, 3])
        assert not res.decomposable

    def test_translation_normalisation(self):
        res = decompose_binary([10, 11, 12, 13])
        assert res.decomposable and res.normalized
        a, b = res.witness
        assert a.min == 0
        assert sumset(a, b).elements == (10, 11, 12, 13)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            decompose_binary([0])
        with pytest.raises(DomainError):
            decompose_binary([0, 1], min_part=1)

    def test_node_cap(self, monkeypatch):
        s = sumset(range(0, 40), range(0, 200, 7))
        monkeypatch.setattr(sumset_module, "NODE_CAP", 0)
        with pytest.raises(CapacityError) as err:
            decompose_binary(s)
        assert err.value.nodes_explored >= 1

    def test_search_depth_is_not_bounded_by_the_stack(self, monkeypatch):
        # A grows by one offset per level, about 200 levels deep, under a
        # recursion limit of 100 frames beyond the caller's
        s = list(range(201)) + [10**5]
        monkeypatch.setattr(sumset_module, "NODE_CAP", 300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            with pytest.raises(CapacityError) as err:
                decompose_binary(s)
        finally:
            sys.setrecursionlimit(limit)
        assert err.value.nodes_explored == 301

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            decompose_binary(range(10_001))

    def test_round_trip_rediscovery(self):
        rng = random.Random(5)
        for _ in range(120):
            a = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
            b = IntegerSet(rng.sample(range(0, 200), rng.randrange(2, 9)))
            s = sumset(a, b)
            res = decompose_binary(s)
            assert res.decomposable, f"missed decomposition of {a} + {b}"
            wa, wb = res.witness
            assert sumset(wa, wb) == s

    def test_exhaustive_against_bitmask_oracle_small(self):
        top = 9
        oracle = bitmask_decomposables(top)
        for mask in range(1, 1 << (top + 1)):
            if not mask & 1:  # normalise min = 0
                continue
            elements = [i for i in range(top + 1) if mask >> i & 1]
            if len(elements) < 2:
                continue
            res = decompose_binary(elements)
            assert res.decomposable == (mask in oracle), f"disagree on {elements}"
            if res.decomposable:
                wa, wb = res.witness
                assert sumset(wa, wb).elements == tuple(elements)

    def test_all_witnesses_enumeration(self):
        res = decompose_binary([0, 1, 2, 3], all_witnesses=True)
        assert res.decomposable
        assert res.all_witnesses is not None and len(res.all_witnesses) >= 2
        seen = set()
        for a, b in res.all_witnesses:
            assert sumset(a, b).elements == (0, 1, 2, 3)
            assert len(a) >= 2 and len(b) >= 2
            assert a.elements not in seen
            seen.add(a.elements)
        none = decompose_binary([0, 1, 3], all_witnesses=True)
        assert not none.decomposable and none.all_witnesses is None

    def test_min_part_three(self):
        # {0,1,2,3} = {0,1}+{0,2} but no witness with both parts >= 3
        assert decompose_binary([0, 1, 2, 3], min_part=3).decomposable is False
        grid = sumset(range(0, 3), range(0, 9, 3))  # {0..8}
        res = decompose_binary(grid, min_part=3)
        assert res.decomposable


class TestDecomposeRelative:
    def test_equals_plain_when_s0_is_s(self):
        rng = random.Random(6)
        for _ in range(40):
            a = IntegerSet(rng.sample(range(0, 60), rng.randrange(2, 6)))
            b = IntegerSet(rng.sample(range(0, 60), rng.randrange(2, 6)))
            s = sumset(a, b)
            assert decompose_binary_relative(s, s).decomposable
        for s in ([0, 1, 3], [0, 2, 3, 7]):
            plain = decompose_binary(s).decomposable
            rel = decompose_binary_relative(s, s).decomposable
            assert plain == rel

    def test_micro_example(self):
        res = decompose_binary_relative([0], [0, 1])
        assert not res.decomposable

    def test_sandwich_looser_than_exact(self):
        # {0,1,3} is not a sumset, but inside {0,1,2,3,4} a sandwich exists
        res = decompose_binary_relative([0, 1, 3], [0, 1, 2, 3, 4])
        assert res.decomposable
        a, b = res.witness
        out = sumset(a, b)
        assert IntegerSet([0, 1, 3]).issubset(out)
        assert out.issubset(IntegerSet([0, 1, 2, 3, 4]))

    def test_exhaustive_micro_scale(self):
        # verdicts agree with a brute-force search over all (A, B) pairs
        top = 6
        for s_mask in range(1, 1 << (top + 1)):
            s_elems = [i for i in range(top + 1) if s_mask >> i & 1]
            if len(s_elems) < 1:
                continue
            s0_elems = [v for i, v in enumerate(s_elems) if i % 2 == 0]
            got = decompose_binary_relative(s0_elems, s_elems).decomposable
            s_set = set(s_elems)
            s0_set = set(s0_elems)
            want = False
            # direct double-exponential oracle over subsets of [0, top]:
            # enumerate every normalised A, take the maximal admissible B
            universe = list(range(0, max(s_elems) + 1))
            for a_mask in range(1, 1 << len(universe)):
                a_set = [universe[i] for i in range(len(universe)) if a_mask >> i & 1]
                if len(a_set) < 2 or a_set[0] != 0:
                    continue
                b_candidates = [
                    v for v in universe if all(v + a in s_set for a in a_set)
                ]
                if len(b_candidates) < 2:
                    continue
                covered = {a + b for a in a_set for b in b_candidates}
                if s0_set <= covered:
                    want = True
                    break
            assert got == want, f"relative disagree on s={s_elems}, s0={s0_elems}"

    def test_primes_truncation_instance(self, table_1e4):
        x0, x = 10, 150
        primes = table_1e4.primes_between(x0, x).tolist()
        wide = table_1e4.primes_between(x0, 2 * x).tolist()
        res = decompose_binary_relative(primes, wide)
        if res.decomposable:
            a, b = res.witness
            out = sumset(a, b)
            assert IntegerSet(primes).issubset(out)
            assert out.issubset(IntegerSet(wide))
        else:
            assert res.nodes_explored > 0

    def test_validation(self):
        with pytest.raises(DomainError):
            decompose_binary_relative([5], [0, 1])  # s0 not inside s
        with pytest.raises(DomainError):
            decompose_binary_relative([], [0, 1])


class TestTernary:
    def test_examples(self):
        v = decompose_ternary_via_ruzsa(range(100), 10.0)
        assert v.impossible and v.verdict == "ternary impossible"
        v = decompose_ternary_via_ruzsa(range(10), 100.0)
        assert not v.impossible and v.verdict == "inconclusive"

    def test_threshold_is_strict(self):
        # |s|^2 == bound^3 exactly: not impossible
        s = range(8)  # 64 = 4^3
        assert not decompose_ternary_via_ruzsa(s, 4.0).impossible
