"""Sieve bound evaluators: the larger sieve, the large sieve, the Selberg
upper bound with explicit remainder, the inverse-sieve lower bound, and the
proposition-level bound machines built from them.

Every evaluator returns a ``SieveBoundReport`` carrying the bound, the
denominator, the exact sifted count for comparison, and a per-hypothesis
record.  The hypothesis checks are the numerically verifiable conditions
under which each bound is a theorem; with the strict constants they are
implied by the stated thresholds, with scaled constants they are checked
directly.  A bound should only be asserted against the sifted count when
``valid`` holds: the report gives no reason and every hypothesis holds.
The small-k BV machine's remainder is the arith kernel, ``discrepancy_sum``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Mapping, Optional

import numpy as np

from .arith import _walk_sum, discrepancy_sum, lattice_sum
from .arith import reduced_residues_mask  # noqa: F401 - perfbench/selftest.py checks this binding
from .errors import CapacityError, DomainError
from .primes import (
    MEMORY_CAP,
    PrimeSubset,
    _factor_hits,
    _power,
    _selected,
    all_primes,
    divisibility_hits,
    residue_counts,
    shift_class_masks,
    subset_sums,
    survivors,
)
from .profiles import STRICT, ConstantsProfile
from .sumset import IntegerSet, coerce_shifts

# Product over primes of (1 - t_p) stays >= 1/2 whenever each t_p <= 1/4 and
# the deficit sum below stays under this threshold (1 - t >= exp(-2t) there).
_DEFICIT_BUDGET = math.log(2.0) / 4.0


def star_sum(primes: list, c: float, bound: int) -> float:
    """sum over squarefree 1 < q <= bound supported on `primes` (ascending) of prod
    c/p: the P0* sums of the small-k machines and both irreducibility conditions.
    A ``lattice_sum``, so more than ENTRY_CAP q (q = 1 included) raise CapacityError."""
    return lattice_sum(primes, {p: c / p for p in primes}, bound) - 1.0


class OccupancyProfile:
    """The residue classes mod p a set meets (or avoids): `counts` aligned with
    `primes` (ascending, int64), and `span`, (min, max) of the set, or None for a
    profile built by hand from a mapping p -> count (ints mixed with floats stay objects)."""

    def __init__(self, entries: Mapping[int, float], span: Optional[tuple[int, int]] = None):
        primes = sorted(entries)
        values = list(map(entries.__getitem__, primes))
        self.primes, self.span = np.array(primes, dtype=np.int64), span
        self.counts = np.array(values, dtype=object if len(set(map(type, values))) > 1 else None)

    @classmethod
    def of(cls, primes: np.ndarray, counts: np.ndarray, span=None) -> "OccupancyProfile":
        profile = cls.__new__(cls)
        profile.primes, profile.counts, profile.span = primes, counts, span
        return profile

    def at(self, primes: np.ndarray, missing) -> tuple[np.ndarray, np.ndarray]:
        """(the counts at `primes` (ascending), `missing` where none, the mask of known)."""
        i = np.searchsorted(self.primes, primes)
        if not self.primes.size:
            return np.full(primes.size, missing), i < 0
        known = self.primes.take(i, mode="clip") == primes
        counts = self.counts.take(i, mode="clip")
        return (counts if known.all() else np.where(known, counts, missing)), known


@dataclass
class SieveBoundReport:
    bound: float
    denominator_L: float
    params: dict
    reason: str = ""
    main_term: Optional[float] = None
    remainder: Optional[float] = None
    sifted_count: Optional[int] = None
    hypotheses: dict = field(default_factory=dict)
    branch: Optional[str] = None
    profile: Optional[str] = None

    def __post_init__(self):
        failed = ", ".join(name for name, ok in self.hypotheses.items() if not ok)
        if failed and not self.reason:
            self.reason = f"hypotheses not met: {failed}"

    @property
    def valid(self) -> bool:
        return not self.reason

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "valid": self.valid, "hypotheses_ok": self.hypotheses_ok}


def occupancy(a, ps: PrimeSubset) -> OccupancyProfile:
    """Exact residue-class occupancy nu(p) of a set at every prime of ps."""
    a = IntegerSet.coerce(a)
    if len(a) == 0:
        raise DomainError("occupancy of an empty set")
    plist = ps.primes()
    return OccupancyProfile.of(plist, residue_counts(a.array(), plist), (a.min, a.max))


def avoided_classes(profile: OccupancyProfile) -> OccupancyProfile:
    """omega(p) = p - nu(p): the classes mod p an occupancy profile's set avoids."""
    return OccupancyProfile.of(profile.primes, profile.primes - profile.counts, profile.span)


def sift_count(s, shifts, ps: PrimeSubset) -> int:
    """#{s in S : s != a_i mod p for every shift a_i and prime p in ps}: the
    size of the one sift, ``survivors``."""
    return int(survivors(IntegerSet.coerce(s).array(), coerce_shifts(shifts).array(), ps).size)


# --------------------------------------------------------------------------
# the three sieve lemmas


def _running_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., in order, as a loop adds them (np.add.accumulate)."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def _sieve_denominator(primes: np.ndarray, omega: np.ndarray, q_limit: int):
    """(support, L): the primes p <= Q with omega(p) > 0, and L, the sum over
    squarefree q <= Q supported on them of prod omega(p) / (p - omega(p)),
    in ``lattice`` preorder, for omega aligned with `primes` (ascending).  Every
    omega(p) must lie in [0, p), and Q must be at least 1.  More than ENTRY_CAP
    squarefree q (q = 1 included) raise CapacityError (``_walk_sum``)."""
    if q_limit < 1:
        raise DomainError(f"need Q >= 1, got {q_limit}")
    values = omega.astype(np.float64) if omega.dtype == object else omega  # as its floats
    bad = (values < 0) | (values >= primes)
    if bad.any():
        i = bad.argmax()
        raise DomainError(f"need 0 <= omega(p) < p at p={primes[i]}, got {omega.tolist()[i]}")
    keep = (values > 0) & (primes <= q_limit)
    support, w = primes[keep], omega[keep]
    weights = dict(zip(support.tolist(), (w / (support - w)).tolist()))
    L = _walk_sum(list(weights), q_limit, 1.0, lambda t, p: t * weights[p], itemgetter(1),
                  "the sieve denominator sums over more than {} squarefree q")
    return support, L


def larger_sieve_bound(
    profile: OccupancyProfile, ps: PrimeSubset, n_limit: int
) -> SieveBoundReport:
    """Gallagher larger-sieve upper bound for a set in [1, N].

    bound = (sum log p - log N) / (sum log p / nu(p) - log N), valid while
    the denominator is positive.  nu(p) = 0 for some p means the set is
    empty mod p; reported as invalid with bound 0 rather than raised.  When
    the profile knows its set's range (``occupancy`` records it), A inside
    [1, N] is a hypothesis of the report, and the bound is not valid without it.
    The primes and their math.log values come from the cache (``_selected``);
    both sums run one term at a time in ascending order (``np.add.accumulate``).
    """
    if n_limit < 1:
        raise DomainError(f"need N >= 1, got {n_limit}")
    primes, logs = _selected(ps, 0, None, logs=True)
    params = {"N": n_limit, "ps": ps.describe(), "primes": primes.size}
    hyps = {}
    if profile.span is not None:
        hyps["set_within_1_to_N"] = 1 <= profile.span[0] and profile.span[1] <= n_limit
    nu, known = profile.at(primes, math.nan)
    nu = nu.astype(np.float64)
    # the first prime missing from the profile, or with nu(p) <= 0, decides
    gap = np.flatnonzero(~known | (nu <= 0))
    if gap.size and known[gap[0]]:
        return SieveBoundReport(0.0, 0.0, params, f"occupancy 0 at p={primes[gap[0]]}: sifted "
                                "set empty", hypotheses=hyps)
    if gap.size:
        raise DomainError(f"occupancy profile missing prime {primes[gap[0]]}")
    num = _running_sum(-math.log(n_limit), logs)
    den = _running_sum(-math.log(n_limit), logs / nu)
    if den <= 0:
        return SieveBoundReport(
            math.inf, den, params, "denominator not positive", hypotheses=hyps
        )
    reason = "" if all(hyps.values()) else "the set does not lie in [1, N]"
    return SieveBoundReport(num / den, den, params, reason, hypotheses=hyps)


def large_sieve_bound(profile: OccupancyProfile, x: int, q_limit: int) -> SieveBoundReport:
    """Montgomery large-sieve upper bound (x + Q^2) / L.

    omega(p) is the number of residue classes avoided (``avoided_classes``);
    primes absent from the profile contribute omega = 0.  The q = 1 term makes
    L >= 1.  When the profile knows its set's range, the set lying in an
    interval of x integers is a hypothesis of the report, and the bound is not
    valid without it.
    """
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    support, L = _sieve_denominator(profile.primes, profile.counts, q_limit)
    bound = _power(x + q_limit**2, 1) / L
    params = {"x": x, "Q": q_limit, "support": len(support)}
    hyps = {}
    if profile.span is not None:
        hyps["set_within_interval_of_length_x"] = profile.span[1] - profile.span[0] < x
    reason = "" if all(hyps.values()) else "the set does not lie in an interval of length x"
    return SieveBoundReport(bound, L, params, reason, hypotheses=hyps)


def selberg_bound(
    c_set, ps: PrimeSubset, shifts, omega: OccupancyProfile, q_limit: int
) -> SieveBoundReport:
    """Selberg upper bound: main term #C/L plus the exact remainder sum.

    The remainder runs over squarefree d <= Q^2 supported on ps, weighting
    tau3(d) against the exact divisibility discrepancy
    |#{c : d | prod(c - r_i)} - #C prod omega(p)/p|.  Divisibility is tested
    per prime via residue membership (d squarefree with known factors).
    Sound for any 0 <= omega(p) < p, so the report is always valid.  The
    hit masks (``shift_class_masks``, |C| bytes each) are built as the walk meets
    their primes: past MEMORY_CAP in all, or past ENTRY_CAP q in L or d by
    ``_walk_sum``'s pre-count, CapacityError is raised before any is built.
    """
    c_set = IntegerSet.coerce(c_set)
    shifts = coerce_shifts(shifts)
    if len(c_set) == 0:
        raise DomainError("C must be non-empty")
    plist = ps.primes()
    w, _ = omega.at(plist, 0)
    _, L = _sieve_denominator(plist, w, q_limit)
    size_c = len(c_set)
    main = size_c / L

    d_bound = q_limit**2
    mask_primes = plist[: np.searchsorted(plist, d_bound, side="right")].tolist()
    if len(mask_primes) * size_c > MEMORY_CAP:
        raise CapacityError(f"Selberg hit masks for {len(mask_primes)} primes x {size_c} "
                            "values would pass the memory cap")
    hits_at = shift_class_masks(c_set.array(), shifts.array())
    masks, omega_at = {}, dict(zip(mask_primes, w.tolist()))

    def step(state, p):
        mask, density, r = state
        hits = masks[p] if p in masks else masks.setdefault(p, hits_at(p))  # built once, lazily
        return (hits if mask is None else mask & hits), density * omega_at[p] / p, r + 1

    def term(pair):
        d, (mask, density, r) = pair
        return (3**r) * abs(int(np.count_nonzero(mask)) - size_c * density) if d > 1 else 0.0

    remainder = _walk_sum(mask_primes, d_bound, (None, 1.0, 0), step, term,
                          "Selberg's remainder sums over more than {} squarefree d")

    sifted = sift_count(c_set, shifts, ps)
    params = {
        "Q": q_limit,
        "ps": ps.describe(),
        "k": len(shifts),
        "set_size": size_c,
        "primes": len(plist),
    }
    return SieveBoundReport(
        main + remainder,
        L,
        params,
        main_term=main,
        remainder=remainder,
        sifted_count=sifted,
    )


# --------------------------------------------------------------------------
# inverse sieve


@dataclass(frozen=True)
class InverseSieveReport:
    lower: float
    strengthened: bool
    lhs: float
    recip_sum: float
    theta_sum: float
    base_lower: float


def inverse_sieve_lower_bound(a, ps: PrimeSubset, y: float, x: int) -> InverseSieveReport:
    """Lower bound for sum of nu_A(p)/p over the window (y/2, y].

    base lower = k * sum 1/p - (k^2 - k) log x / ((y/2) log(y/2)); when the
    window's theta sum reaches STRICT.window_coefficient * k * log x the
    bound is replaced by the strengthened (k/2) * sum 1/p.  The exact
    left-hand side is returned for verification.
    """
    a = IntegerSet.coerce(a)
    k = len(a)
    if k < 2:
        raise DomainError(f"need #A >= 2, got {k}")
    if not y >= 10:  # a NaN y fails too
        raise DomainError(f"need y >= 10, got {y}")
    if a.max > x or a.min < 1:
        raise DomainError("A must lie in [1, x]")
    sums = subset_sums(ps, y / 2, y)
    window_primes = ps.primes_in(y / 2, y)
    lhs = _running_sum(0.0, residue_counts(a.array(), window_primes) / window_primes)
    log_x = math.log(x)
    base_lower = k * sums.mertens_recip - (k * k - k) * log_x / ((y / 2) * math.log(y / 2))
    strengthened = sums.theta >= STRICT.window_coefficient * k * log_x
    lower = (k / 2.0) * sums.mertens_recip if strengthened else base_lower
    return InverseSieveReport(
        lower, strengthened, lhs, sums.mertens_recip, sums.theta, base_lower
    )


# --------------------------------------------------------------------------
# proposition-level machines


def _vacuous(params, reason, sifted, profile, branch=None) -> SieveBoundReport:
    """The infinite, invalid bound of a machine whose denominator vanished."""
    return SieveBoundReport(
        math.inf, 0.0, params, reason, sifted_count=sifted, branch=branch, profile=profile
    )


def _small_k_shifts(shifts, ctx) -> IntegerSet:
    """The shifts of a small-k machine: 2 <= k <= K of them, in [0, x]."""
    shifts = coerce_shifts(shifts)
    if not (2 <= len(shifts) <= ctx.K):
        raise DomainError(f"need 2 <= k <= K = {ctx.K:.6g}, got k = {len(shifts)}")
    if shifts.max > ctx.x:
        raise DomainError(f"shifts must lie in [0, x = {ctx.x}]")
    return shifts


def _small_k_hypotheses(shifts: IntegerSet, primes: list) -> dict:
    """The small-k hypotheses over the machine's P0* primes (ascending): the
    least is at least 4k, and the occupancy deficit sum of (k - nu(p))/p
    stays within _DEFICIT_BUDGET."""
    k = len(shifts)
    deficit = _running_sum(0.0, (k - residue_counts(shifts.array(), primes)) / np.array(primes))
    return {
        "star_primes_at_least_4k": bool(not primes or primes[0] >= 4 * k),
        "occupancy_deficit_within_budget": deficit <= _DEFICIT_BUDGET,
    }


def prop_smallkscs_bound(s, shifts, ctx) -> SieveBoundReport:
    """Small-k bound driven by the sieve-controls-size denominator.

    bound = 4x / ((k/2) * sum over 1 < q <= sqrt(x), q squarefree and
    P0*-supported, of prod 2/p).  Hypotheses verified: every P0* prime up to
    sqrt(x) is at least 4k, and the occupancy deficit sum is at most log 2 / 4,
    so prod (1 - t_p) >= 1/2; both hold automatically under the strict constants.
    """
    s = IntegerSet.coerce(s)
    shifts = _small_k_shifts(shifts, ctx)
    k = len(shifts)
    star = ctx.ps_star
    x = ctx.x
    root = math.isqrt(x)
    params = {
        "x": x,
        "k": k,
        "K": ctx.K,
        "ps_star": star.describe(),
        "set_size": len(s),
    }
    small = star.primes_in(1, root).tolist()
    denom_sum = star_sum(small, 2.0, root)
    sifted = sift_count(s, shifts, star)
    if not small or denom_sum <= 0:
        reason = "P0* has no prime up to sqrt(x); denominator sum vanishes"
        return _vacuous(params, reason, sifted, ctx.profile.name)
    denominator = (k / 2.0) * denom_sum
    return SieveBoundReport(
        4.0 * x / denominator,
        denominator,
        params,
        sifted_count=sifted,
        hypotheses=_small_k_hypotheses(shifts, small),
        profile=ctx.profile.name,
    )


def prop_smallkbv_bound(s, shifts, ctx, q_limit: int) -> SieveBoundReport:
    """Small-k bound driven by progression discrepancies inside S.

    bound = 2#S / ((k-1) * sum over 1 < q <= Q of mu^2/q, P0*-supported)
          + sum over squarefree d <= Q^2, P0*-supported, of
            tau3(d)^(1 + log k / log 3) * max over (a,d)=1 of
            |#{s in S : s = a mod d} - #S/phi(d)|.
    Requires that no element of S is divisible by a P0* prime.  S is scanned
    for them in the cached factor table of P0 (``_factor_hits``: L[s] >= the
    P0* floor), the one ``build_context`` clears S with, and
    ``divisibility_hits`` finds the witnesses when it shows a hit, or scans
    alone where no table applies.  The discrepancy sum is
    ``discrepancy_sum`` with base 3k and its default modulus budget; a prime
    table below Q^2 raises CapacityError.
    """
    s = IntegerSet.coerce(s)
    shifts = _small_k_shifts(shifts, ctx)
    k = len(shifts)
    star = ctx.ps_star
    found = _factor_hits(s.array(), star, s.max) if len(s) else None
    hits = divisibility_hits(s.array(), star)[0] if found is None or found.any() else []
    if hits:
        raise DomainError(
            f"S contains elements divisible by P0* primes, e.g. {hits[:3]}"
        )
    size_s = len(s)
    params = {
        "x": ctx.x,
        "Q": q_limit,
        "k": k,
        "K": ctx.K,
        "ps_star": star.describe(),
        "set_size": size_s,
    }
    sifted = sift_count(s, shifts, star)
    q_primes = star.primes_in(1, q_limit).tolist()
    main_den = star_sum(q_primes, 1.0, q_limit)
    if not q_primes or main_den <= 0:
        reason = "P0* has no prime up to Q; main denominator vanishes"
        return _vacuous(params, reason, sifted, ctx.profile.name)
    main = 2.0 * size_s / ((k - 1) * main_den)
    d_bound = q_limit**2
    # 3k = tau3(d)^(1 + log k / log 3) for a prime d
    disc, _ = discrepancy_sum(s.array(), star.primes_in(1, d_bound).tolist(), d_bound, 3.0 * k)
    return SieveBoundReport(
        main + disc,
        (k - 1) * main_den,
        params,
        main_term=main,
        remainder=disc,
        sifted_count=sifted,
        hypotheses=_small_k_hypotheses(shifts, q_primes),
        profile=ctx.profile.name,
    )


def middlek_bound(
    s,
    shifts,
    ps: PrimeSubset,
    x: int,
    y1: float,
    y2: float,
    *,
    profile: ConstantsProfile = STRICT,
) -> SieveBoundReport:
    """Two-window bound 128 x log y1 log y2 / k^2 times the window theta
    ratios, with an automatic reduction of k when the window sums only
    support a smaller shift count.

    The full-k branch applies when both window theta sums over ps reach
    w * k * log x (w from the profile); otherwise k is reduced to
    k0 = min(k, floor(theta_i / (w log x))) and the bound carries
    M = max(1/k^2, 4 (w log x)^2 / theta_i^2) in place of 1/k0^2.  The bound
    counts a sifted subset of [1, x], so S inside [1, x] is a hypothesis of
    the report, and the bound is not valid without it.
    """
    s = IntegerSet.coerce(s)
    shifts = coerce_shifts(shifts)
    k = len(shifts)
    if not (y1 < y2 / 2 < y2 < _power(x, 0.5) / y1):
        raise DomainError(
            f"window ordering violated: need y1 < y2/2 < y2 < sqrt(x)/y1, "
            f"got y1={y1}, y2={y2}, sqrt(x)/y1={_power(x, 0.5) / y1:.6g}"
        )
    if shifts.max > x:
        raise DomainError(f"shifts must lie in [0, x = {x}]")
    log_x = math.log(x)
    w_coeff = profile.window_coefficient
    everything = all_primes(ps.base)
    windows = []
    for y in (y1, y2):
        sub = subset_sums(ps, y / 2, y)
        full = subset_sums(everything, y / 2, y)
        windows.append((y, sub, full))
    params = {
        "x": x,
        "k": k,
        "y1": y1,
        "y2": y2,
        "ps": ps.describe(),
        "theta_ps": [w[1].theta for w in windows],
        "theta_all": [w[2].theta for w in windows],
    }
    sifted = sift_count(s, shifts, ps)
    if any(w[1].theta <= 0 for w in windows):
        return _vacuous(params, "a window contains no subset prime", sifted, profile.name)

    threshold = w_coeff * k * log_x
    if all(w[1].theta >= threshold for w in windows):
        branch = "full-k"
        k_eff = k
        m_factor = 1.0 / (k * k)
    else:
        branch = "reduced-k"
        k_eff = min(
            k, *(int(w[1].theta // (w_coeff * log_x)) for w in windows)
        )
        if k_eff < 1:
            reason = "window theta sums below the single-shift threshold"
            return _vacuous(params, reason, sifted, profile.name, branch)
        m_factor = max(
            1.0 / (k * k),
            *(4.0 * (w_coeff * log_x) ** 2 / (w[1].theta ** 2) for w in windows),
        )
    ratio = 1.0
    for _, sub, full in windows:
        ratio *= full.theta / sub.theta
    bound = 128.0 * _power(x, 1) * m_factor * math.log(y1) * math.log(y2) * ratio

    hyps = {
        "set_within_1_to_x": not len(s) or (1 <= s.min and s.max <= x),
        "windows_at_least_10": y1 >= 10 and y2 >= 10,
    }
    for idx, (y, sub, full) in enumerate(windows, start=1):
        err = (k_eff * k_eff - k_eff) * log_x / ((y / 2) * math.log(y / 2))
        hyps[f"window{idx}_error_term_dominated"] = err <= 0.5 * k_eff * sub.mertens_recip
        hyps[f"window{idx}_mertens_at_least_half"] = full.mertens_log >= 0.5
    return SieveBoundReport(
        bound,
        m_factor,
        params,
        sifted_count=sifted,
        hypotheses=hyps,
        branch=branch,
        profile=profile.name,
    )
