"""Sumset algebra, the ternary sumset inequality, and the exact
decomposability decision procedure for finite integer sets.

The binary search decides exactly whether s = A + B with both parts of size
at least min_part.  After translating min(s) to 0, any witness can be
normalised so 0 lies in both parts; then A and B are subsets of s, and for a
fixed A the maximal candidate B is the intersection of the translates s - a.
Searching A in ascending element order with that maximal B is therefore
complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CapacityError, DomainError

_SET_SIZE_CAP = 10_000
_DEFAULT_NODE_CAP = 1_000_000


class IntegerSet:
    """Strictly increasing tuple of non-negative integers."""

    __slots__ = ("elements", "_lookup")

    def __init__(self, values: Iterable[int]):
        elems = sorted(set(int(v) for v in values))
        if elems and elems[0] < 0:
            raise DomainError(f"negative element {elems[0]}")
        self.elements: tuple[int, ...] = tuple(elems)
        self._lookup = frozenset(elems)

    @classmethod
    def from_sorted(cls, values: np.ndarray) -> "IntegerSet":
        """Trusted constructor: `values` is already a sorted, deduplicated,
        non-negative int64 array (np.unique output, say); nothing is checked."""
        out = cls.__new__(cls)
        elems = values.tolist()
        out.elements = tuple(elems)
        out._lookup = frozenset(elems)
        return out

    @classmethod
    def coerce(cls, values) -> "IntegerSet":
        return values if isinstance(values, IntegerSet) else cls(values)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v):
        return v in self._lookup

    def __eq__(self, other):
        return isinstance(other, IntegerSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        if len(self.elements) <= 8:
            return f"IntegerSet({list(self.elements)})"
        head = ", ".join(str(v) for v in self.elements[:4])
        return f"IntegerSet([{head}, ...; n={len(self.elements)}])"

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def array(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.int64)

    def translate(self, offset: int) -> "IntegerSet":
        return IntegerSet(v + offset for v in self.elements)

    def issubset(self, other: "IntegerSet") -> bool:
        return self._lookup <= other._lookup


def sumset(a, b) -> IntegerSet:
    """{x + y : x in a, y in b}, sorted and deduplicated."""
    a = IntegerSet.coerce(a)
    b = IntegerSet.coerce(b)
    if len(a) == 0 or len(b) == 0:
        return IntegerSet(())
    sums = np.unique(np.add.outer(a.array(), b.array()).ravel())
    return IntegerSet.from_sorted(sums)


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


def _coverage_feasible(target, a_sofar, b_set, future):
    """Every target element must be reachable from current A or future
    candidates with some b in the current (maximal) B candidate."""
    for u in target:
        hit = False
        for a in a_sofar:
            if a > u:
                break
            if u - a in b_set:
                hit = True
                break
        if not hit:
            for a in future:
                if a > u:
                    break
                if u - a in b_set:
                    hit = True
                    break
            if not hit:
                return False
    return True


def _covers(target_size, target_set, a_sofar, b_cand) -> bool:
    covered = set()
    for a in a_sofar:
        for b in b_cand:
            covered.add(a + b)
    return len(covered) == target_size  # A+B is a subset of target by construction


def decompose_binary(
    s,
    min_part: int = 2,
    *,
    max_nodes: int = _DEFAULT_NODE_CAP,
    all_witnesses: bool = False,
    max_witnesses: int = 1000,
) -> DecompositionResult:
    """Decide exactly whether s = A + B with #A, #B >= min_part.

    Deterministic depth-first search, candidates ascending; the first witness
    found is returned with min(A) = 0 and the original offset folded into B.
    With ``all_witnesses`` the search continues and collects every distinct A
    together with its maximal partner B (exponential; capped).
    """
    s = IntegerSet.coerce(s)
    if min_part < 2:
        raise DomainError(f"need min_part >= 2, got {min_part}")
    if len(s) < 2:
        raise DomainError(f"need at least 2 elements, got {len(s)}")
    if len(s) > _SET_SIZE_CAP:
        raise CapacityError(
            f"set size {len(s)} exceeds search cap {_SET_SIZE_CAP}", nodes_explored=0
        )
    offset = s.min
    t = tuple(v - offset for v in s.elements)
    t_set = frozenset(t)
    n = len(t)
    nodes = 0
    collected = []

    def rec(a_sofar, b_cand, start_idx):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise CapacityError(
                f"decomposition search exceeded {max_nodes} nodes",
                nodes_explored=nodes,
            )
        if (
            len(a_sofar) >= min_part
            and len(b_cand) >= min_part
            and _covers(n, t_set, a_sofar, b_cand)
        ):
            if not all_witnesses:
                return a_sofar, b_cand
            if len(collected) < max_witnesses:
                collected.append((list(a_sofar), list(b_cand)))
        for idx in range(start_idx, n):
            a = t[idx]
            b_new = [b for b in b_cand if (a + b) in t_set]
            if len(b_new) < min_part:
                continue
            future = t[idx + 1 :]
            if not _coverage_feasible(t, a_sofar + [a], set(b_new), future):
                continue
            hit = rec(a_sofar + [a], b_new, idx + 1)
            if hit is not None:
                return hit
        return None

    found = rec([0], list(t), 1)
    if all_witnesses and collected:
        witnesses = tuple(
            (IntegerSet(a), IntegerSet(b + offset for b in bs))
            for a, bs in collected
        )
        return DecompositionResult(True, witnesses[0], nodes, True, witnesses)
    if found is None:
        return DecompositionResult(False, None, nodes, offset != 0)
    a_part, b_part = found
    witness = (IntegerSet(a_part), IntegerSet(b + offset for b in b_part))
    return DecompositionResult(True, witness, nodes, True)


def decompose_binary_relative(
    s0, s, min_part: int = 2, *, max_nodes: int = _DEFAULT_NODE_CAP
) -> DecompositionResult:
    """Decide whether some A + B sandwiches: s0 subset of A+B subset of s.

    This is the finitised inclusion variant: coverage is required only on s0
    while every sum must stay inside s.  Anchors min(B) over the elements of
    s not exceeding min(s0); within an anchor the search mirrors
    ``decompose_binary``.
    """
    s0 = IntegerSet.coerce(s0)
    s = IntegerSet.coerce(s)
    if len(s0) == 0:
        raise DomainError("s0 must be non-empty")
    if not s0.issubset(s):
        raise DomainError("s0 must be a subset of s")
    if min_part < 2:
        raise DomainError(f"need min_part >= 2, got {min_part}")
    if len(s) > _SET_SIZE_CAP:
        raise CapacityError(
            f"set size {len(s)} exceeds search cap {_SET_SIZE_CAP}", nodes_explored=0
        )
    s_set = s._lookup
    s0_elems = s0.elements
    nodes = 0

    def rec(anchor, offsets, a_sofar, b_cand, start_idx):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise CapacityError(
                f"decomposition search exceeded {max_nodes} nodes",
                nodes_explored=nodes,
            )
        if len(a_sofar) >= min_part and len(b_cand) >= min_part:
            b_set = set(b_cand)
            if all(any(u - a in b_set for a in a_sofar) for u in s0_elems):
                return a_sofar, b_cand
        for idx in range(start_idx, len(offsets)):
            a = offsets[idx]
            b_new = [b for b in b_cand if (a + b) in s_set]
            if len(b_new) < min_part:
                continue
            future = offsets[idx + 1 :]
            b_new_set = set(b_new)
            feasible = True
            for u in s0_elems:
                if any(u - x in b_new_set for x in a_sofar + [a]):
                    continue
                if not any(u - x in b_new_set for x in future if x <= u):
                    feasible = False
                    break
            if not feasible:
                continue
            hit = rec(anchor, offsets, a_sofar + [a], b_new, idx + 1)
            if hit is not None:
                return hit
        return None

    for anchor in s.elements:
        if anchor > s0.min:
            break
        offsets = tuple(v - anchor for v in s.elements if v >= anchor)
        b0 = [b for b in s.elements if b >= anchor]
        found = rec(anchor, offsets, [0], b0, 1)
        if found is not None:
            a_part, b_part = found
            return DecompositionResult(
                True, (IntegerSet(a_part), IntegerSet(b_part)), nodes, True
            )
    return DecompositionResult(False, None, nodes, True)


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
