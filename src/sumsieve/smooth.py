"""Exact smooth-number counting, the Dickman function, progression
discrepancy sums and shifted-tuple smooth counts.

Counting is exact only: Psi(x, y) comes from the recurrence
Psi(x, y) = 1 + sum over p <= y of Psi(x/p, p) with memoisation, and the
progression/coprime refinements come from the same machinery or from direct
enumeration over prime-exponent vectors.  The Dickman function is integrated
in log space with a fixed-step fourth-order scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .primes import MEMORY_CAP, PrimeSubset, PrimeTable
from .sieves import reduced_residues_mask
from .sumset import IntegerSet

_X_CAP = 10**9
_TUPLE_X_CAP = 10**8
# the memory cap bounds the memo/enumeration work; roughly 100 bytes per
# retained entry
_DEFAULT_WORK_BUDGET = MEMORY_CAP // 100

_table_cache: dict[int, PrimeTable] = {}


def _primes_up_to(y: int) -> list[int]:
    key = max(int(y), 2)
    for limit, table in _table_cache.items():
        if limit >= key:
            return table.primes_between(1, key).tolist()
    limit = max(2 * key, 1000)
    table = PrimeTable(limit)
    _table_cache.clear()
    _table_cache[limit] = table
    return table.primes_between(1, key).tolist()


@dataclass(frozen=True)
class SmoothQuery:
    """Count y-smooth n <= x, optionally restricted to n = a (mod d)."""

    x: int
    y: int
    d: Optional[int] = None
    a: Optional[int] = None

    def __post_init__(self):
        if self.x < 1:
            raise DomainError(f"need x >= 1, got {self.x}")
        if self.y < 2:
            raise DomainError(f"need y >= 2, got {self.y}")
        if (self.d is None) != (self.a is None):
            raise DomainError("modulus and residue must be given together")
        if self.d is not None:
            if self.d < 1 or not (0 <= self.a < self.d):
                raise DomainError(f"need 0 <= a < d, got a={self.a}, d={self.d}")


class _Work:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise CapacityError("smooth-number work budget exceeded")


def _count_smooth(x: int, primes: Sequence[int], work: _Work) -> int:
    """#{n <= x : all prime factors of n among `primes`} via the largest-
    prime-factor recurrence with memoisation on (value, prime index)."""
    memo: dict[tuple[int, int], int] = {}

    def rec(v: int, i: int) -> int:
        if v < 1:
            return 0
        if i < 0 or v < 2:
            return 1  # only n = 1
        key = (v, i)
        hit = memo.get(key)
        if hit is not None:
            return hit
        work.spend()
        total = 1
        for j in range(i + 1):
            p = primes[j]
            if p > v:
                break
            total += rec(v // p, j)
        memo[key] = total
        return total

    return rec(x, len(primes) - 1)


def psi(q: SmoothQuery, *, work_budget: int = _DEFAULT_WORK_BUDGET) -> int:
    """Exact Psi(x, y), or Psi(x, y; a, d) when the query carries a modulus."""
    if q.x > _X_CAP:
        raise CapacityError(f"x = {q.x} exceeds exact-mode cap {_X_CAP}")
    work = _Work(work_budget)
    if q.x < 1:
        return 0
    if q.d is None:
        if q.y >= q.x:
            return q.x
        return _count_smooth(q.x, _primes_up_to(q.y), work)
    primes = _primes_up_to(q.y)
    count = 0

    def rec(i: int, n: int):
        nonlocal count
        work.spend()
        if n % q.d == q.a:
            count += 1
        for j in range(i, len(primes)):
            p = primes[j]
            m = n * p
            if m > q.x:
                break
            while True:
                rec(j + 1, m)
                if m * p > q.x:
                    break
                m *= p

    rec(0, 1)
    return count


def psi_coprime(q: SmoothQuery, d: int, *, work_budget: int = _DEFAULT_WORK_BUDGET) -> int:
    """Exact count of y-smooth n <= x with gcd(n, d) = 1."""
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if q.x > _X_CAP:
        raise CapacityError(f"x = {q.x} exceeds exact-mode cap {_X_CAP}")
    primes = [p for p in _primes_up_to(q.y) if d % p != 0]
    return _count_smooth(q.x, primes, _Work(work_budget))


def enumerate_smooth(
    x: int, y: int, *, work_budget: int = _DEFAULT_WORK_BUDGET
) -> np.ndarray:
    """All y-smooth n <= x, sorted ascending."""
    if x > _X_CAP:
        raise CapacityError(f"x = {x} exceeds exact-mode cap {_X_CAP}")
    primes = _primes_up_to(y)
    work = _Work(work_budget)
    out = [1]

    def rec(i: int, n: int):
        work.spend()
        for j in range(i, len(primes)):
            p = primes[j]
            m = n * p
            if m > x:
                break
            while True:
                out.append(m)
                rec(j + 1, m)
                if m * p > x:
                    break
                m *= p

    rec(0, 1)
    arr = np.asarray(out, dtype=np.int64)
    arr.sort()
    return arr


# --------------------------------------------------------------------------
# Dickman's function


@dataclass(frozen=True)
class DickmanValue:
    u: float
    rho: float
    log_rho: float


_RHO_STEP = 1.0 / 1024.0
_RHO_U_CAP = 500.0


class _DickmanMesh:
    """log rho on a uniform mesh over [2, grown_max], extended on demand.

    rho is exact on [0, 2] (1, then 1 - log u), so the delay term needs the
    mesh only once u - 1 >= 2.  The delay equation is integrated in log space
    as L'(u) = -exp(L(u-1) - L(u)) / u with classical RK4; delayed values at
    half-steps come from cubic interpolation confined to one unit segment
    (rho has derivative jumps at the integers).
    """

    def __init__(self, step: float = _RHO_STEP):
        self.step = step
        self.per_unit = round(1.0 / step)
        if abs(self.per_unit * step - 1.0) > 1e-12:
            raise DomainError("step must divide 1")
        self.values = [self._exact_log(2.0)]  # L at u = 2
        self.max_u = 2.0

    @staticmethod
    def _exact_log(u: float) -> float:
        if u <= 1.0:
            return 0.0
        return math.log(1.0 - math.log(u))

    def _mesh_log(self, u: float) -> float:
        """L(u) for u <= current mesh top (exact below 2, cubic on the mesh)."""
        if u <= 2.0:
            return self._exact_log(u)
        pos = (u - 2.0) / self.step
        i = int(round(pos))
        if abs(pos - i) < 1e-6 and i < len(self.values):
            return self.values[i]
        base = int(math.floor(pos)) - 1
        # keep the 4-point stencil inside one unit segment
        seg_lo = int(math.floor((u - 2.0))) * self.per_unit
        seg_hi = min(seg_lo + self.per_unit, len(self.values) - 1)
        base = max(seg_lo, min(base, seg_hi - 3))
        xs = [2.0 + (base + t) * self.step for t in range(4)]
        ys = self.values[base : base + 4]
        total = 0.0
        for m in range(4):
            term = ys[m]
            for r in range(4):
                if r != m:
                    term *= (u - xs[r]) / (xs[m] - xs[r])
            total += term
        return total

    def grow(self, target: float):
        if target <= self.max_u:
            return
        h = self.step
        while self.max_u < target:
            u = self.max_u
            L = self.values[-1]

            def f(uu: float, ll: float) -> float:
                # clamp keeps stage evaluations finite once the double-
                # precision relative floor is reached far out
                return -math.exp(min(self._mesh_log(uu - 1.0) - ll, 700.0)) / uu

            k1 = f(u, L)
            k2 = f(u + h / 2.0, L + h * k1 / 2.0)
            k3 = f(u + h / 2.0, L + h * k2 / 2.0)
            k4 = f(u + h, L + h * k3)
            self.values.append(L + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
            self.max_u = 2.0 + (len(self.values) - 1) * h

    def log_rho(self, u: float) -> float:
        if u <= 2.0:
            return self._exact_log(u)
        self.grow(u + self.step)
        return self._mesh_log(u)


_default_mesh: Optional[_DickmanMesh] = None


def _mesh() -> _DickmanMesh:
    global _default_mesh
    if _default_mesh is None:
        _default_mesh = _DickmanMesh()
    return _default_mesh


def dickman_rho(u: float) -> DickmanValue:
    """Dickman's function: 1 on [0, 1], u rho'(u) = -rho(u - 1) beyond.

    Exact closed form up to u = 2; fixed-step integration beyond with
    absolute error far below 1e-9 on u <= 20.  Relative accuracy decays for
    large u: forward integration of the delay equation amplifies relative
    perturbations faster than double precision can absorb (a property of the
    equation, not the step size), so values beyond u of about 15 are reliable
    in the absolute sense only.
    """
    if not 0 <= u <= _RHO_U_CAP:  # nan included
        raise DomainError(f"need 0 <= u <= {_RHO_U_CAP:g}, got {u}")
    if u <= 1.0:
        return DickmanValue(u, 1.0, 0.0)
    if u <= 2.0:
        rho = 1.0 - math.log(u)
        return DickmanValue(u, rho, math.log(rho))
    lr = _mesh().log_rho(float(u))
    return DickmanValue(u, math.exp(lr), lr)


def dickman_self_check(us: Sequence[float], fine_factor: int = 2) -> float:
    """Max |rho_h - rho_{h/fine_factor}| over the given u values (Richardson
    style step-halving diagnostic)."""
    coarse = _DickmanMesh(_RHO_STEP)
    fine = _DickmanMesh(_RHO_STEP / fine_factor)
    worst = 0.0
    for u in us:
        a = math.exp(coarse.log_rho(u)) if u > 1 else 1.0
        b = math.exp(fine.log_rho(u)) if u > 1 else 1.0
        worst = max(worst, abs(a - b))
    return worst


# --------------------------------------------------------------------------
# discrepancy sums and tuple counts


@dataclass(frozen=True)
class DiscrepancyBreakdown:
    d: int
    factors: tuple[int, ...]
    weight: float
    max_deviation: float
    term: float


def bv_discrepancy_sum(
    s_y: SmoothQuery,
    ps: PrimeSubset,
    q_limit: int,
    exponent_k: int,
    *,
    work_budget: int = _DEFAULT_WORK_BUDGET,
    modulus_work_cap: int = 5 * 10**7,
) -> tuple[float, list[DiscrepancyBreakdown]]:
    """sum over squarefree d <= Q^2 supported on ps of
    tau3(d)^(1 + log k / log 3) * max over (a,d)=1 of
    |Psi(x, y; a, d) - Psi_d(x, y)/phi(d)|, by full enumeration.

    ps must avoid the primes up to y, so the moduli are coprime to every
    smooth number.  The residue scan spends O(d) work per modulus; once the
    accumulated modulus work passes ``modulus_work_cap`` a capacity error is
    raised carrying the partial sum and breakdown.
    """
    if exponent_k < 1:
        raise DomainError(f"need exponent_k >= 1, got {exponent_k}")
    if ps.primes_in(1, min(s_y.y, ps.base.limit)).size > 0:
        raise DomainError("ps must be disjoint from the primes up to y")
    smooth = enumerate_smooth(s_y.x, s_y.y, work_budget=work_budget)
    d_bound = q_limit**2
    support = ps.primes_in(1, min(d_bound, ps.base.limit)).tolist()
    breakdown: list[DiscrepancyBreakdown] = []
    total = 0.0
    spent = 0

    def rec(i: int, d: int, factors: tuple[int, ...]):
        nonlocal total, spent
        if d > 1:
            spent += d + smooth.size
            if spent > modulus_work_cap:
                raise CapacityError(
                    "modulus enumeration budget exceeded",
                    partial_sum=total,
                    partial_breakdown=list(breakdown),
                    last_d=d,
                )
            counts = np.bincount(smooth % d, minlength=d)
            coprime = reduced_residues_mask(d)
            phi = int(coprime.sum())
            psi_d = int(counts[coprime].sum())
            dev = float(np.abs(counts[coprime] - psi_d / phi).max())
            weight = (3.0 * exponent_k) ** len(factors)
            term = weight * dev
            total += term
            breakdown.append(DiscrepancyBreakdown(d, factors, weight, dev, term))
        for j in range(i, len(support)):
            p = support[j]
            if d * p > d_bound:
                break
            rec(j + 1, d * p, factors + (p,))

    rec(0, 1, ())
    breakdown.sort(key=lambda b: b.d)
    return total, breakdown


@dataclass(frozen=True)
class TupleCountReport:
    count: int
    x: int
    y: int
    shifts: tuple[int, ...]
    u: float
    heuristic_rho_power: float
    heuristic_u_power: float
    heuristic_u_super: float


def smooth_tuple_count(x: int, y: int, shifts) -> TupleCountReport:
    """Exact #{n <= x : n + a_i is y-smooth for every shift a_i}.

    The report carries the standard comparators x rho(u)^k, x / u^k and
    x / u^(u + k - 1) for context.
    """
    shifts = IntegerSet.coerce(shifts)
    if len(shifts) == 0:
        raise DomainError("need at least one shift")
    if x > _TUPLE_X_CAP:
        raise CapacityError(f"x = {x} exceeds tuple-count cap {_TUPLE_X_CAP}")
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    top = x + shifts.max
    primes = _primes_up_to(y)
    block = 1 << 20
    smooth_mask = np.zeros(top + 1, dtype=bool)
    for lo in range(1, top + 1, block):
        hi = min(lo + block, top + 1)
        residual = np.arange(lo, hi, dtype=np.int64)
        for p in primes:
            if p > top:
                break
            start = ((lo + p - 1) // p) * p
            if start >= hi:
                continue
            idx = np.arange(start - lo, hi - lo, p)
            while idx.size:
                residual[idx] //= p
                idx = idx[residual[idx] % p == 0]
        smooth_mask[lo:hi] = residual == 1
    keep = np.ones(x, dtype=bool)  # n = 1 .. x
    for a in shifts:
        keep &= smooth_mask[1 + a : x + a + 1]
    count = int(keep.sum())

    u = math.log(x) / math.log(y)
    k = len(shifts)
    rho = dickman_rho(min(u, _RHO_U_CAP)).rho
    return TupleCountReport(
        count,
        x,
        y,
        shifts.elements,
        u,
        x * rho**k,
        x / u**k,
        x / u ** (u + k - 1),
    )


def regularity_ratio(x: int, y: int) -> float:
    """Diagnostic ratio Psi(x, y') / Psi(x, y) with y' = y (1 + 100 log y / log x).

    Exposed as a diagnostic only; nothing in the package asserts a bound on it.
    """
    y_up = int(y * (1.0 + 100.0 * math.log(y) / math.log(x)))
    base = psi(SmoothQuery(x, y))
    upper = psi(SmoothQuery(x, max(y_up, y)))
    return upper / base if base else math.inf
