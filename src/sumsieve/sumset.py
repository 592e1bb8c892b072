"""Sumset algebra, the ternary sumset inequality, and the exact
decomposability decision procedure for finite integer sets.

The binary search decides exactly whether s = A + B with both parts of size
at least min_part.  After translating min(s) to 0, any witness can be
normalised so 0 lies in both parts; then A and B are subsets of s, and for a
fixed A the maximal candidate B is the intersection of the translates s - a.
Searching A in ascending element order with that maximal B is therefore
complete.  The sandwich variant s0 <= A + B <= s runs the same search once
for each candidate min(B) in s up to min(s0).

Every set is an ``IntegerSet``: one read-only, sorted, deduplicated int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import primes
from .errors import CapacityError, DomainError

_SET_SIZE_CAP = 10_000
# the most nodes a decomposition search visits, and witnesses it collects
NODE_CAP = 1_000_000
WITNESS_CAP = 1000
# every element is an int64: values lie in [0, 2^63)
_VALUE_END = 1 << 63


class IntegerSet:
    """Finite set of integers in [0, 2^63), stored as one read-only, sorted,
    deduplicated int64 array; everything else is derived from that array."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            raise DomainError("integer set elements must lie in [0, 2^63)") from None
        if arr.ndim != 1:
            raise DomainError("an integer set needs a flat sequence of integers")
        arr.sort()
        if arr.size and arr[0] < 0:
            raise DomainError(f"negative element {arr[0]}")
        repeat = arr[1:] == arr[:-1]
        if repeat.any():
            arr = arr[np.concatenate(([True], ~repeat))]
        arr.flags.writeable = False
        self._values = arr

    @classmethod
    def coerce(cls, values) -> "IntegerSet":
        return values if isinstance(values, IntegerSet) else cls(values)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self._values.tolist())

    def __len__(self):
        return self._values.size

    def __iter__(self):
        return iter(self._values.tolist())

    def __contains__(self, v):
        i = int(np.searchsorted(self._values, v))
        return i < self._values.size and self._values[i] == v

    def __eq__(self, other):
        return isinstance(other, IntegerSet) and np.array_equal(self._values, other._values)

    def __hash__(self):
        return hash(self._values.tobytes())

    def __repr__(self):
        if len(self) <= 8:
            return f"IntegerSet({self._values.tolist()})"
        head = ", ".join(str(v) for v in self._values[:4].tolist())
        return f"IntegerSet([{head}, ...; n={len(self)}])"

    @property
    def min(self) -> int:
        return int(self._values[0])

    @property
    def max(self) -> int:
        return int(self._values[-1])

    def array(self) -> np.ndarray:
        """The elements as a read-only int64 array (the stored one, not a copy)."""
        return self._values

    def issubset(self, other: "IntegerSet") -> bool:
        # both ascend, so the last position is the largest
        pos = np.searchsorted(other._values, self._values)
        return not pos.size or bool(
            pos[-1] < other._values.size and (other._values[pos] == self._values).all()
        )


def coerce_shifts(values) -> IntegerSet:
    """The shifts a_1 < ... < a_k as an IntegerSet; k >= 1."""
    shifts = IntegerSet.coerce(values)
    if len(shifts) == 0:
        raise DomainError("need at least one shift")
    return shifts


def sumset(a, b) -> IntegerSet:
    """{x + y : x in a, y in b}, sorted and deduplicated.

    The outer sum is formed in row blocks of at most primes.BLOCK_BYTES (or of
    one row, if larger).  When the sums span at most BLOCK_BYTES integers the
    blocks mark them in one bool range; otherwise each block's distinct sums
    are merged by sort and adjacent-dedup at the end, or as soon as they pass
    primes.VALUE_CAP values.  A result of more than primes.VALUE_CAP values
    raises CapacityError.
    """
    a = IntegerSet.coerce(a)
    b = IntegerSet.coerce(b)
    if len(a) == 0 or len(b) == 0:
        return IntegerSet(())
    if a.max + b.max >= _VALUE_END:
        raise DomainError(f"sum {a.max} + {b.max} does not fit below 2^63")
    too_many = CapacityError(f"sumset has more than {primes.VALUE_CAP} values")
    a_arr, b_arr = a.array(), b.array()
    rows = max(1, primes.BLOCK_BYTES // (8 * len(b)))
    span = a.max + b.max - a.min - b.min + 1
    if span <= primes.BLOCK_BYTES:
        marked = np.zeros(span, dtype=bool)
        a_rel, b_rel = a_arr - a.min, b_arr - b.min
        for lo in range(0, len(a), rows):
            marked[np.add.outer(a_rel[lo : lo + rows], b_rel).ravel()] = True
        if np.count_nonzero(marked) > primes.VALUE_CAP:
            raise too_many
        return IntegerSet(np.flatnonzero(marked) + (a.min + b.min))
    parts = []
    for lo in range(0, len(a), rows):
        parts.append(IntegerSet(np.add.outer(a_arr[lo : lo + rows], b_arr).ravel()))
        if len(parts) > 1 and (lo + rows >= len(a) or sum(map(len, parts)) > primes.VALUE_CAP):
            parts = [IntegerSet(np.concatenate([part.array() for part in parts]))]
            if len(parts[0]) > primes.VALUE_CAP:
                raise too_many
    return parts[0]


@dataclass(frozen=True)
class RuzsaResult:
    lhs: int
    rhs: int
    holds: bool


def ruzsa_check(a, b, c) -> RuzsaResult:
    """|A+B+C|^2 versus |A+B| |A+C| |B+C| (the former never exceeds the latter)."""
    a, b, c = IntegerSet.coerce(a), IntegerSet.coerce(b), IntegerSet.coerce(c)
    if not (len(a) and len(b) and len(c)):
        raise DomainError("all three sets must be non-empty")
    ab = sumset(a, b)
    lhs = len(sumset(ab, c)) ** 2
    rhs = len(ab) * len(sumset(a, c)) * len(sumset(b, c))
    return RuzsaResult(lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class DecompositionResult:
    decomposable: bool
    witness: Optional[tuple[IntegerSet, IntegerSet]]
    nodes_explored: int
    normalized: bool
    all_witnesses: Optional[tuple] = None  # populated only when requested


def _reaches(u, offsets, b_set) -> bool:
    """Whether u = x + b for an x in offsets (ascending) and b in b_set."""
    for x in offsets:
        if x > u:
            return False
        if u - x in b_set:
            return True
    return False


def _search(s, target, anchors, min_part, collected=None):
    """Depth-first search for A + B with target <= A + B <= s and #A, #B >= min_part.

    For each anchor (min B, ascending) the search works in coordinates
    relative to it: the offsets t are the elements of s from the anchor on,
    A starts as {0} and grows by offsets in ascending order, and B is the
    maximal partner {b in t : a + b in t for every a in A}.  A child is
    pruned unless every target element u is a + b with b in B and a in A or
    a later offset.  Returns ((A, B + anchor), nodes) for the first witness or
    (None, nodes).  With a `collected` list every witness is appended (up to
    WITNESS_CAP of them) and the search runs on to the end.  More than
    NODE_CAP nodes raise CapacityError.
    """
    nodes = 0

    def enter(a_part, b_part, covered):
        """Count a node; return its witness if the search stops there."""
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapacityError(f"decomposition search exceeded {NODE_CAP} nodes",
                                nodes_explored=nodes)
        if covered and len(a_part) >= min_part:
            if collected is None:
                return a_part, b_part
            if len(collected) < WITNESS_CAP:
                collected.append((a_part, [b + anchor for b in b_part]))
        return None

    def child(a_sofar, b_cand, idx):
        """(A + t[idx], its maximal B, covered), or None if pruned."""
        a = t[idx]
        b_new = [b for b in b_cand if (a + b) in t_set]
        if len(b_new) < min_part:
            return None
        b_set = set(b_new)
        a_new = a_sofar + [a]
        # covered: A + a reaches every u; pruned if no u - b (b in B) is a later offset either
        covered = True
        for u in goal:
            if not _reaches(u, a_new, b_set):
                covered = False
                if not any(u - b > a and u - b in t_set for b in b_new):
                    return None
        return a_new, b_new, covered

    elements = s.elements
    for anchor in anchors:
        # enter and child read these three for the current anchor
        t = [v - anchor for v in elements if v >= anchor]
        t_set = set(t)
        goal = [u - anchor for u in target]
        # preorder walk from A = {0}: each stack entry (A, B, i) is a node
        # whose children A + t[j], j >= i, are still to be tried
        found = enter([0], t, False)
        stack = [([0], t, 1)]
        while found is None and stack:
            a_sofar, b_cand, start = stack.pop()
            for idx in range(start, len(t)):
                node = child(a_sofar, b_cand, idx)
                if node is not None:
                    found = enter(*node)
                    stack += [(a_sofar, b_cand, idx + 1), (node[0], node[1], idx + 1)]
                    break
        if found is not None:
            a_part, b_part = found
            return (IntegerSet(a_part), IntegerSet([b + anchor for b in b_part])), nodes
    return None, nodes


def _check_search_input(s, min_part):
    if min_part < 2:
        raise DomainError(f"need min_part >= 2, got {min_part}")
    if len(s) > _SET_SIZE_CAP:
        raise CapacityError(
            f"set size {len(s)} exceeds search cap {_SET_SIZE_CAP}", nodes_explored=0
        )


def decompose_binary(
    s,
    min_part: int = 2,
    *,
    all_witnesses: bool = False,
) -> DecompositionResult:
    """Decide exactly whether s = A + B with #A, #B >= min_part.

    Deterministic depth-first search, candidates ascending; the first witness
    found is returned with min(A) = 0 and the original offset folded into B.
    With ``all_witnesses`` the search continues and collects every distinct A
    together with its maximal partner B (exponential; at most WITNESS_CAP).
    """
    s = IntegerSet.coerce(s)
    if len(s) < 2:
        raise DomainError(f"need at least 2 elements, got {len(s)}")
    _check_search_input(s, min_part)
    collected = [] if all_witnesses else None
    witness, nodes = _search(s, s, [s.min], min_part, collected)
    if collected:
        witnesses = tuple((IntegerSet(a), IntegerSet(b)) for a, b in collected)
        return DecompositionResult(True, witnesses[0], nodes, True, witnesses)
    if witness is None:
        return DecompositionResult(False, None, nodes, s.min != 0)
    return DecompositionResult(True, witness, nodes, True)


def decompose_binary_relative(s0, s, min_part: int = 2) -> DecompositionResult:
    """Decide whether some A + B sandwiches: s0 subset of A+B subset of s.

    This is the finitised inclusion variant: coverage is required only on s0
    while every sum must stay inside s.  The search is ``decompose_binary``'s,
    anchored in turn at each element of s not exceeding min(s0).
    """
    s0 = IntegerSet.coerce(s0)
    s = IntegerSet.coerce(s)
    if len(s0) == 0:
        raise DomainError("s0 must be non-empty")
    if not s0.issubset(s):
        raise DomainError("s0 must be a subset of s")
    _check_search_input(s, min_part)
    anchors = [v for v in s if v <= s0.min]
    witness, nodes = _search(s, s0, anchors, min_part)
    return DecompositionResult(witness is not None, witness, nodes, True)


@dataclass(frozen=True)
class TernaryVerdict:
    verdict: str  # "ternary impossible" or "inconclusive"
    impossible: bool
    set_size: int
    binary_bound: float
    size_squared: float
    bound_cubed: float


def decompose_ternary_via_ruzsa(s, binary_bound: float) -> TernaryVerdict:
    """Rule out s = A + B + C from a bound on every binary sumset size.

    If |s|^2 exceeds binary_bound^3 then no ternary decomposition exists,
    because |s|^2 <= |A+B| |A+C| |B+C| <= binary_bound^3.  Pure arithmetic,
    no search.
    """
    s = IntegerSet.coerce(s)
    if binary_bound < 0:
        raise DomainError(f"need binary_bound >= 0, got {binary_bound}")
    size_sq = float(len(s)) ** 2
    cube = float(binary_bound) ** 3
    impossible = size_sq > cube
    return TernaryVerdict(
        "ternary impossible" if impossible else "inconclusive",
        impossible,
        len(s),
        float(binary_bound),
        size_sq,
        cube,
    )
