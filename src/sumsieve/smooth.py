"""Exact smooth-number counting, the Dickman function, progression
discrepancy sums over smooth numbers (the arith kernel, ``discrepancy_sum``)
and shifted-tuple smooth counts.

Counting is exact only: Psi(x, y) comes from the recurrence
Psi(x, y) = 1 + sum over p <= y of Psi(x/p, p) with memoisation, and the
progression/coprime refinements come from the same machinery or from direct
enumeration over prime-exponent vectors.  The Dickman function comes from
its exact power series on each unit interval, with positive coefficients
obtained interval by interval from the delay equation (van de Lune & Wattel,
Math. Comp. 23 (1969); Marsaglia, Zaman & Marsaglia, Math. Comp. 53 (1989)).
Tuple counts read one ``primes.multiples`` mask of the n a prime above y divides.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import primes
from .arith import MODULUS_WORK_CAP, DiscrepancyBreakdown, _capped_lattice, discrepancy_sum
from .arith import reduced_residues_mask  # noqa: F401 - perfbench/selftest.py checks this binding
from .errors import CapacityError, DomainError
from .sumset import coerce_shifts

_X_CAP = 10**9
_TUPLE_X_CAP = 10**8


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


def _count_smooth(x: int, plist: Sequence[int]) -> int:
    """#{n <= x : all prime factors of n among `plist`} via the largest-
    prime-factor recurrence with memoisation on (value, prime index); more
    than primes.ENTRY_CAP memo misses raise CapacityError."""
    memo: dict[tuple[int, int], int] = {}
    spent = 0
    budget = primes.ENTRY_CAP

    def rec(v: int, i: int) -> int:
        nonlocal spent
        if v < 1:
            return 0
        if i < 0 or v < 2:
            return 1  # only n = 1
        key = (v, i)
        hit = memo.get(key)
        if hit is not None:
            return hit
        spent += 1
        if spent > budget:
            raise CapacityError("smooth-number work budget exceeded")
        total = 1
        for j in range(i + 1):
            p = plist[j]
            if p > v:
                break
            total += rec(v // p, j)
        memo[key] = total
        return total

    return rec(x, len(plist) - 1)


def psi(q: SmoothQuery) -> int:
    """Exact Psi(x, y), or Psi(x, y; a, d) when the query carries a modulus."""
    if q.x > _X_CAP:
        raise CapacityError(f"x = {q.x} exceeds exact-mode cap {_X_CAP}")
    if q.d is None:
        if q.y >= q.x:
            return q.x
        return _count_smooth(q.x, primes.primes_up_to(q.y).tolist())
    return int(np.count_nonzero(enumerate_smooth(q.x, q.y) % q.d == q.a))


def psi_coprime(q: SmoothQuery, d: int) -> int:
    """Exact count of y-smooth n <= x with gcd(n, d) = 1."""
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if q.x > _X_CAP:
        raise CapacityError(f"x = {q.x} exceeds exact-mode cap {_X_CAP}")
    plist = [p for p in primes.primes_up_to(min(q.y, q.x)).tolist() if d % p != 0]
    return _count_smooth(q.x, plist)


def enumerate_smooth(x: int, y: int) -> np.ndarray:
    """All y-smooth n <= x, sorted ascending; more than primes.ENTRY_CAP
    raise CapacityError."""
    if x > _X_CAP:
        raise CapacityError(f"x = {x} exceeds exact-mode cap {_X_CAP}")
    # a prime above x divides no n <= x
    plist = primes.primes_up_to(min(y, x)).tolist()
    arr = _capped_lattice(plist, x, primes.ENTRY_CAP, "smooth-number work budget exceeded")
    arr.sort()
    return arr


# --------------------------------------------------------------------------
# Dickman's function


@dataclass(frozen=True)
class DickmanValue:
    rho: float
    log_rho: float


RHO_U_CAP = 500.0
_RHO_TERMS = 64

# Row k (k >= 2) holds rho(k - xi) = exp(_rho_log_scale[k]) * sum_i
# _rho_rows[k][i] * xi^i for 0 <= xi <= 1, normalised so that the constant
# term is 1 (the scale is log rho(k)).  Row 2 is the closed form
# 1 - log(2 - xi) = 1 - log 2 + sum_i (xi/2)^i / i; rows 0 and 1 are unused.
_RHO_C0 = 1.0 - math.log(2.0)
_rho_rows: list[list[float]] = [
    [], [], [1.0] + [1.0 / (i * 2.0**i * _RHO_C0) for i in range(1, _RHO_TERMS)]
]
_rho_log_scale: list[float] = [0.0, 0.0, math.log(_RHO_C0)]
_rho_lock = threading.Lock()


def _extend_rho_rows(top: int) -> None:
    """Append the rows up to `top`, one unit interval at a time.

    Substituting the series into u rho'(u) = -rho(u - 1) with u = k - xi gives
    c_{i+1} = (c_i^(k-1) + i c_i) / (k (i + 1)); the identity
    u rho(u) = integral of rho over [u - 1, u] at u = k then gives
    (k - 1) c_0 = sum_{i>=1} c_i / (i + 1).  Every term is positive, so
    nothing cancels, and dividing by c_0 keeps each row near 1.
    """
    with _rho_lock:
        while len(_rho_rows) <= top:
            k = len(_rho_rows)
            prev = _rho_rows[-1]
            c = [0.0] * _RHO_TERMS
            for i in range(_RHO_TERMS - 1):
                c[i + 1] = (prev[i] + i * c[i]) / (k * (i + 1))
            c[0] = sum(c[i] / (i + 1) for i in range(1, _RHO_TERMS)) / (k - 1)
            _rho_log_scale.append(_rho_log_scale[-1] + math.log(c[0]))
            _rho_rows.append([v / c[0] for v in c])


def dickman_rho(u: float) -> DickmanValue:
    """Dickman's function: 1 on [0, 1], u rho'(u) = -rho(u - 1) beyond.

    Exact closed form up to u = 2.  Beyond, rho(u) on [k - 1, k] is the power
    series in k - u whose coefficients follow exactly from the previous unit
    interval's (see `_extend_rho_rows`), summed by Horner's rule; log_rho is
    accurate to about 1e-12 absolute (so rho to about 1e-12 relative) up to
    u = 500.  rho itself underflows to 0.0 beyond u of about 132.7, where
    log_rho falls below the double-precision exponent range.
    """
    if not 0 <= u <= RHO_U_CAP:  # nan included
        raise DomainError(f"need 0 <= u <= {RHO_U_CAP:g}, got {u}")
    if u <= 1.0:
        return DickmanValue(1.0, 0.0)
    if u <= 2.0:
        rho = 1.0 - math.log(u)
        return DickmanValue(rho, math.log(rho))
    k = math.ceil(u)
    _extend_rho_rows(k)
    xi = k - u
    total = 0.0
    for coeff in reversed(_rho_rows[k]):
        total = total * xi + coeff
    lr = _rho_log_scale[k] + math.log(total)
    return DickmanValue(math.exp(lr), lr)


# --------------------------------------------------------------------------
# discrepancy sums and tuple counts


def bv_discrepancy_sum(
    s_y: SmoothQuery,
    ps: primes.PrimeSubset,
    q_limit: int,
    exponent_k: int,
    *,
    modulus_work_cap: int = MODULUS_WORK_CAP,
) -> tuple[float, list[DiscrepancyBreakdown]]:
    """sum over squarefree d <= Q^2 supported on ps of
    tau3(d)^(1 + log k / log 3) * max over (a,d)=1 of
    |Psi(x, y; a, d) - Psi_d(x, y)/phi(d)|, by full enumeration.

    The primes of ps up to Q^2, the moduli's support, must lie above y, so the
    moduli are coprime to every smooth number.  The sum is ``discrepancy_sum`` with
    base 3k (inf past the float range) over them, its rows sorted by d; a prime table
    below Q^2 raises CapacityError when ps could hold a prime past it, and past
    ``modulus_work_cap`` units of modulus work a capacity error carries the partial
    sum and breakdown.
    """
    if exponent_k < 1:
        raise DomainError(f"need exponent_k >= 1, got {exponent_k}")
    d_bound = q_limit**2
    support = ps.primes_in(1, d_bound).tolist()
    if support and support[0] <= s_y.y:
        raise DomainError("ps must be disjoint from the primes up to y")
    smooth = enumerate_smooth(s_y.x, s_y.y)
    base = 3.0 * primes._power(exponent_k, 1)
    total, rows = discrepancy_sum(smooth, support, d_bound, base, work_cap=modulus_work_cap)
    return total, sorted(rows, key=lambda b: b.d)


@dataclass(frozen=True)
class TupleCountReport:
    count: int
    u: float
    heuristic_rho_power: float
    heuristic_u_power: float
    heuristic_u_super: float


def smooth_tuple_count(x: int, y: int, shifts) -> TupleCountReport:
    """Exact #{n <= x : n + a_i is y-smooth for every shift a_i}.

    n <= top = x + max a_i is y-smooth when no prime in (y, top] divides it: one
    ``multiples`` mask, with primes from ``primes_up_to(top)``.  The mask's top + 1
    bytes and the x bytes of sifted flags are refused past MEMORY_CAP before either or
    the table is built.  The report carries the comparators x rho(u)^k, x / u^k and
    x / u^(u + k - 1), the last two through ``primes._power`` (inf where u < 1 makes u^k 0).
    """
    shifts = coerce_shifts(shifts)
    if x > _TUPLE_X_CAP:
        raise CapacityError(f"x = {x} exceeds tuple-count cap {_TUPLE_X_CAP}")
    if x < 2 or y < 2:
        raise DomainError(f"need x, y >= 2, got x={x}, y={y}")
    top = x + shifts.max
    if top + 1 + x > primes.MEMORY_CAP:
        raise CapacityError(f"a tuple scan over [0, {top}] would pass the memory cap")
    plist = primes.primes_up_to(top)
    rough = primes.multiples(plist[np.searchsorted(plist, min(y, top), side="right") :], top)
    sifted = np.zeros(x, dtype=bool)  # n = 1 .. x
    for a in shifts:
        sifted |= rough[1 + a : x + a + 1]
    count = x - int(np.count_nonzero(sifted))

    u = math.log(x) / math.log(y)
    k = len(shifts)
    rho = dickman_rho(min(u, RHO_U_CAP)).rho
    u_k, u_super = primes._power(u, k), primes._power(u, u + k - 1)
    return TupleCountReport(
        count,
        u,
        x * rho**k,
        x / u_k if u_k else math.inf,
        x / u_super if u_super else math.inf,
    )
