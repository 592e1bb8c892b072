"""The decomposition searches pinned to the exact results they return.

Each case records the verdict, ``nodes_explored``, ``normalized``, the first
witness and, where asked for, every collected witness.  The expected values
were taken from ``decompose_binary`` and ``decompose_binary_relative`` while
they were two separate searches, so any change to the order in which the
search visits its nodes, to its pruning or to its coverage test shows here.
The families at the end are pinned by the sha256 of their rows' ``repr``.
"""

import hashlib
import importlib

import pytest

from sumsieve.errors import CapacityError
from sumsieve.smooth import enumerate_smooth
from sumsieve.sumset import decompose_binary, decompose_binary_relative, sumset

# the layer module: the package's name `sumset` is the function
sumset_module = importlib.import_module("sumsieve.sumset")


def describe(res):
    return (
        res.decomposable,
        res.nodes_explored,
        res.normalized,
        None if res.witness is None else [list(w) for w in res.witness],
        None if res.all_witnesses is None else [[list(a), list(b)] for a, b in res.all_witnesses],
    )


def capacity_nodes(node_cap, search, *args, **kwargs):
    """nodes_explored of the CapacityError that search raises under node_cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumset_module, "NODE_CAP", node_cap)
        with pytest.raises(CapacityError) as err:
            search(*args, **kwargs)
    return err.value.nodes_explored


# a set the plain search needs 146 nodes to refute
HARD = [5, 8, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 26, 30, 32, 34, 37]
# (s0, s) that the relative search needs 349 nodes over its ten anchors to refute
HARD_RELATIVE = ([20, 26, 27], [4, 7, 8, 11, 12, 13, 15, 16, 17, 20, 22, 26, 27])


class TestBinaryPinned:
    @pytest.mark.parametrize("s, min_part, expected", [
        ([0, 1, 2, 3], 2, (True, 2, True, [[0, 1], [0, 1, 2]], None)),
        ([10, 11, 12, 13], 2, (True, 2, True, [[0, 1], [10, 11, 12]], None)),
        ([5, 6, 8], 2, (False, 1, True, None, None)),
        ([0, 1, 3], 2, (False, 1, False, None, None)),
        ([0, 1, 2, 3], 3, (False, 2, False, None, None)),
        (sumset(range(3), range(100, 109, 3)), 3,
         (True, 3, True, [[0, 1, 2], [100, 101, 102, 103, 104, 105, 106]], None)),
        (HARD, 2, (False, 146, True, None, None)),
    ])
    def test_first_witness(self, s, min_part, expected):
        assert describe(decompose_binary(s, min_part)) == expected

    def test_all_witnesses(self):
        assert describe(decompose_binary([0, 1, 2, 3], all_witnesses=True)) == (
            True, 4, True, [[0, 1], [0, 1, 2]],
            [[[0, 1], [0, 1, 2]], [[0, 1, 2], [0, 1]], [[0, 2], [0, 1]]],
        )

    def test_all_witnesses_translated(self, monkeypatch):
        every = [
            [[0, 1], [7, 8, 9, 10, 11]], [[0, 1, 2], [7, 8, 9, 10]], [[0, 1, 2, 3], [7, 8, 9]],
            [[0, 1, 2, 3, 4], [7, 8]], [[0, 1, 2, 4], [7, 8]], [[0, 1, 3], [7, 8, 9]],
            [[0, 1, 3, 4], [7, 8]], [[0, 2], [7, 8, 9, 10]], [[0, 2, 3], [7, 8, 9]],
            [[0, 2, 3, 4], [7, 8]], [[0, 2, 4], [7, 8]], [[0, 3], [7, 8, 9]],
        ]
        res = decompose_binary(range(7, 13), all_witnesses=True)
        assert describe(res) == (True, 13, True, every[0], every)
        monkeypatch.setattr(sumset_module, "WITNESS_CAP", 2)
        capped = decompose_binary(range(7, 13), all_witnesses=True)
        assert describe(capped) == (True, 13, True, every[0], every[:2])

    def test_all_witnesses_min_part_three(self):
        res = decompose_binary(sumset([0, 1, 5], [0, 2, 9]), 3, all_witnesses=True)
        assert describe(res) == (
            True, 5, True, [[0, 1, 5], [0, 2, 9]],
            [[[0, 1, 5], [0, 2, 9]], [[0, 2, 9], [0, 1, 5]]],
        )

    def test_capacity_error_nodes(self, monkeypatch):
        assert capacity_nodes(0, decompose_binary, [0, 1, 2, 3]) == 1
        assert capacity_nodes(40, decompose_binary, HARD) == 41
        assert capacity_nodes(145, decompose_binary, HARD) == 146
        assert capacity_nodes(12, decompose_binary, range(7, 13), all_witnesses=True) == 13
        monkeypatch.setattr(sumset_module, "NODE_CAP", 146)
        assert decompose_binary(HARD).nodes_explored == 146


class TestRelativePinned:
    @pytest.mark.parametrize("s0, s, min_part, expected", [
        ([0, 1, 3], [0, 1, 2, 3, 4], 2, (True, 2, True, [[0, 1], [0, 1, 2, 3]], None)),
        ([0], [0, 1], 2, (False, 1, True, None, None)),
        # multi-anchor: the witness's B starts at a later anchor than min s
        ([17, 18, 20, 22], [3, 6, 8, 11, 14, 17, 18, 20, 21, 22, 24], 2,
         (True, 78, True, [[0, 3, 4], [14, 17, 18]], None)),
        ([3, 5, 13, 21], [1, 2, 3, 4, 5, 6, 12, 13, 14, 19, 21], 2,
         (True, 75, True, [[0, 1, 2, 9], [3, 4, 12]], None)),
        ([16, 18, 20], [0, 3, 4, 7, 8, 9, 12, 16, 18, 20], 2,
         (True, 73, True, [[0, 2], [7, 16, 18]], None)),
        (*HARD_RELATIVE, 2, (False, 349, True, None, None)),
        ([0, 1, 2, 3], [0, 1, 2, 3], 3, (False, 2, True, None, None)),
        ([10, 14], sumset(range(3), range(10, 19, 3)), 3,
         (True, 3, True, [[0, 1, 2], [10, 11, 12, 13, 14, 15, 16]], None)),
    ])
    def test_first_witness(self, s0, s, min_part, expected):
        assert describe(decompose_binary_relative(s0, s, min_part)) == expected

    def test_capacity_error_nodes(self):
        assert capacity_nodes(0, decompose_binary_relative, *HARD_RELATIVE) == 1
        assert capacity_nodes(100, decompose_binary_relative, *HARD_RELATIVE) == 101
        assert capacity_nodes(348, decompose_binary_relative, *HARD_RELATIVE) == 349


class TestSmoothSetsPinned:
    # the paper's sparse sets: the y-smooth numbers up to x, which the search
    # refutes; verdicts and node counts recorded while the coverage test
    # still scanned the later offsets instead of B
    @pytest.mark.parametrize("x, y, size, nodes", [
        (10**7, 5, 768, 47),
        (10**8, 5, 1105, 47),
        (10**6, 7, 1273, 526),
    ])
    def test_refuted(self, x, y, size, nodes):
        s = enumerate_smooth(x, y).tolist()
        assert len(s) == size
        assert describe(decompose_binary(s)) == (False, nodes, True, None, None)


def _subsets(top, shift):
    for mask in range(1, 1 << (top + 1)):
        elems = [i + shift for i in range(top + 1) if mask >> i & 1]
        if len(elems) >= 2:
            yield elems


FAMILIES = {
    "binary": lambda: [describe(decompose_binary(s)) for s in _subsets(12, 3)],
    "binary_min_part_3": lambda: [describe(decompose_binary(s, 3)) for s in _subsets(12, 3)],
    "all_witnesses": lambda: [
        describe(decompose_binary(s, all_witnesses=True)) for s in _subsets(9, 3)
    ],
    "relative_self": lambda: [describe(decompose_binary_relative(s, s)) for s in _subsets(12, 3)],
    "relative_odd_positions": lambda: [
        describe(decompose_binary_relative(s[1::2], s)) for s in _subsets(12, 3)
    ],
    "relative_min_part_3": lambda: [
        describe(decompose_binary_relative(s[1::2], s, 3)) for s in _subsets(10, 3)
    ],
}


@pytest.mark.parametrize("name, digest", [
    ("binary", "d3614e8abfc146dffeaf4f1df0814226d24bc76069d95a37771da6690d34f3c4"),
    ("binary_min_part_3", "11c376254f85e72205398e333b729cc816d2d8aa98749611017fd5f9f90a33b4"),
    ("all_witnesses", "e40061511836504c7fe31c8c2236923810f3676d29631d6381f2f2ae6dd0735d"),
    ("relative_self", "d3614e8abfc146dffeaf4f1df0814226d24bc76069d95a37771da6690d34f3c4"),
    ("relative_odd_positions", "be3005f146579aa91ac3651ab5c25d0ebeb8a88d9826fcd951dd3850642565aa"),
    ("relative_min_part_3", "b9cf8f02896ecaa52cf20bc64c223bd3c1c60f2690f7a40c2977197e79b7dc9a"),
])
def test_family_digest(name, digest):
    rows = FAMILIES[name]()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
