"""Hypothesis evaluation for the general additive-irreducibility machinery,
plus the half-occupancy diagnostics used in the primes analysis.

``build_context`` assembles the tuple (x, c, sigma, sigma0, K, P0, P0*) for a
concrete instance and verifies that no target-set element is divisible by a
sieving prime, against the one P0 factor table the cache keeps.  The two
alternative conditions (sieve-controls-size and the progression-discrepancy
condition) are then evaluated exactly.  With strict constants, K is typically
so large that P0* is empty at desk scale; that is reported honestly, never
papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .arith import discrepancy_sum, lattice_sum
from .arith import reduced_residues_mask  # noqa: F401 - perfbench/selftest.py checks this binding
from .errors import DegenerateInputError, DivisibilityError, DomainError
from .primes import (
    And,
    MinValue,
    PrimeSubset,
    _factor_hits,
    _power,
    density_ratio_c,
    divisibility_hits,
    primes_up_to,
    residue_counts,
)
from .profiles import STRICT, ConstantsProfile
from .sieves import OccupancyProfile, star_sum
from .sumset import IntegerSet


@dataclass
class GenThmContext:
    x: int
    ps: PrimeSubset
    c: float
    sigma: float
    sigma0: float
    K: float
    ps_star: PrimeSubset
    profile: ConstantsProfile
    hypothesis_failures: list = field(default_factory=list)
    s_size: int = 0
    s0_size: int = 0
    c_measured: Optional[float] = None

    @property
    def hypotheses_met(self) -> bool:
        return not self.hypothesis_failures

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "c": self.c,
            "c_measured": self.c_measured,
            "sigma": self.sigma,
            "sigma0": self.sigma0,
            "K": self.K,
            "ps": self.ps.describe(),
            "ps_star": self.ps_star.describe(),
            "ps_star_empty": self.ps_star.is_empty(),
            "profile": self.profile.describe(),
            "hypothesis_failures": list(self.hypothesis_failures),
            "s_size": self.s_size,
            "s0_size": self.s0_size,
        }


def build_context(
    s,
    s0,
    ps: PrimeSubset,
    x: int,
    profile: ConstantsProfile = STRICT,
) -> GenThmContext:
    """Assemble the evaluation context for a concrete (S, S0, P0, x) instance.

    Verifies s0 subset of s subset of [1, x] and that no element of s is
    divisible by a prime of ps (raising with witnesses otherwise).  The scan
    is L[s] > 0 in the factor table of ps over [0, x] that the one cache keeps
    (``_factor_hits``), which ``prop_smallkbv_bound`` reads for P0* too, and
    looks for witnesses only when it shows a hit; without that table it is
    ``divisibility_hits``.  A density ratio c at or below the
    window floor, c = 0 and a K past the float range are recorded as
    hypothesis failures in the context, not raised; the floor x^(-e) and the P0*
    threshold K^star_exponent are ``_power`` values, and an infinite threshold leaves P0* empty.
    """
    s = IntegerSet.coerce(s)
    s0 = IntegerSet.coerce(s0)
    if len(s) == 0 or len(s0) == 0:
        raise DomainError("S and S0 must be non-empty")
    if s0 is not s and not s0.issubset(s):
        raise DomainError("S0 must be a subset of S")
    if s.min < 1 or s.max > x:
        raise DomainError(f"S must lie in [1, {x}]")
    found = _factor_hits(s.array(), ps, x)
    if found is None or found.any():
        hits, total = divisibility_hits(s.array(), ps)
        if hits:
            raise DivisibilityError(hits, total)

    failures = []
    try:
        measured = density_ratio_c(
            ps, x, window_floor_exponent=profile.c_floor_exponent
        )
    except DegenerateInputError:
        if profile.c_override is None:
            raise
        measured = 0.0
    if profile.c_override is not None:
        # asserted rather than measured; the measured value rides along in
        # the context so the assertion is never silent
        c = profile.c_override
        if measured <= 0:
            failures.append(
                f"density ratio asserted as c = {c:g} but measured 0 on the mesh"
            )
    else:
        c = measured
        if c <= _power(x, -profile.c_floor_exponent):
            failures.append(
                f"density ratio c = {c:.6g} at or below the window floor "
                f"x^(-{profile.c_floor_exponent:g})"
            )
    sigma = len(s) / x
    sigma0 = len(s0) / len(s)
    # a tiny c can underflow the denominator to 0; it, or a huge k_coefficient, takes K to inf
    denominator = sigma0 * sigma * c * c
    if denominator > 0:
        big_k = profile.k_coefficient * math.log(x) ** 2 / denominator
    else:
        big_k = math.inf
    if c == 0:
        failures.append("c = 0: K is unbounded and P0* is empty")
    elif math.isinf(big_k):
        failures.append(f"K = k_coefficient log^2 x / (sigma0 sigma c^2) passes the float range "
                        f"(k_coefficient = {profile.k_coefficient:g}, c = {c:g}) and P0* is empty")
    threshold = _power(big_k, profile.star_exponent)
    star = PrimeSubset(ps.base, And((ps.selector, MinValue(threshold))))
    return GenThmContext(
        x=x,
        ps=ps,
        c=c,
        sigma=sigma,
        sigma0=sigma0,
        K=big_k,
        ps_star=star,
        profile=profile,
        hypothesis_failures=failures,
        s_size=len(s),
        s0_size=len(s0),
        c_measured=measured,
    )


@dataclass(frozen=True)
class ConditionResult:
    name: str
    holds: bool
    values: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, **self.values}


def check_scs_condition(ctx: GenThmContext) -> ConditionResult:
    """Sieve-controls-size: sum over 1 < q <= sqrt(x), q squarefree and
    P0*-supported, of prod 2/p (``star_sum``), against the threshold
    coeff/(sigma0 sigma).  A prime table below sqrt(x) raises CapacityError."""
    root = math.isqrt(ctx.x)
    total = star_sum(ctx.ps_star.primes_in(1, root).tolist(), 2.0, root)
    threshold = ctx.profile.condition_coefficient / (ctx.sigma0 * ctx.sigma)
    return ConditionResult(
        "sieve_controls_size",
        total >= threshold,
        {
            "sum_value": total,
            "threshold": threshold,
            "star_empty": ctx.ps_star.is_empty(),
            "profile": ctx.profile.name,
        },
    )


def check_bv_condition(ctx: GenThmContext, s, q_limit: int) -> ConditionResult:
    """Progression-discrepancy condition at modulus cutoff Q:

    main: sum over 1 < q <= Q, P0*-supported squarefree, of mu^2/q, against
    coeff * sigma0^(-1); discrepancy: sum over squarefree d <= Q^2 of
    tau3(d)^(1 + log K / log 3) * max over (a,d)=1 of
    |#{s in S : s = a mod d} - #S/phi(d)|, against #S sigma0 / (2K).

    The main sum is ``star_sum``; the discrepancy is one ``discrepancy_sum`` over the P0*
    primes up to Q^2, with its default modulus budget and base 3K, a ``_power`` value.  A prime
    table below Q^2 raises CapacityError when P0* could hold a prime past it.
    """
    s = IntegerSet.coerce(s)
    if q_limit < 1:
        raise DomainError(f"need Q >= 1, got {q_limit}")
    size_s = len(s)
    star = ctx.ps_star
    main_sum = star_sum(star.primes_in(1, q_limit).tolist(), 1.0, q_limit)
    main_threshold = ctx.profile.condition_coefficient / ctx.sigma0

    d_bound = q_limit**2
    weight_base = _power(3.0, 1.0 + math.log(ctx.K) / math.log(3.0))
    disc_sum, _ = discrepancy_sum(
        s.array(), star.primes_in(1, d_bound).tolist(), d_bound, weight_base
    )
    disc_threshold = size_s * ctx.sigma0 / (2.0 * ctx.K)
    main_ok = main_sum >= main_threshold
    disc_ok = disc_sum <= disc_threshold
    return ConditionResult(
        "bombieri_vinogradov",
        main_ok and disc_ok,
        {
            "main_sum": main_sum,
            "main_threshold": main_threshold,
            "main_holds": main_ok,
            "disc_sum": disc_sum,
            "disc_threshold": disc_threshold,
            "disc_holds": disc_ok,
            "Q": q_limit,
            "star_empty": star.is_empty(),
            "profile": ctx.profile.name,
        },
    )


@dataclass(frozen=True)
class ConclusionBounds:
    upper_B: float
    lower_A: float
    note: str


def conclusion_bounds(ctx: GenThmContext) -> ConclusionBounds:
    """Shape values sqrt(x) log^4 x / c^4 and sqrt(x) sigma0 sigma c^4 / log^4 x.

    The implied constants are unspecified upstream; both values are emitted
    with constant 1 and flagged as shapes, not certified bounds.
    """
    log4 = math.log(ctx.x) ** 4
    root = math.sqrt(ctx.x)
    c4 = ctx.c**4  # 0 for c = 0 and for a c whose fourth power underflows
    upper = root * log4 / c4 if c4 > 0 else math.inf
    lower = root * ctx.sigma0 * ctx.sigma * c4 / log4
    return ConclusionBounds(
        upper,
        lower,
        "shape values with implied constant 1; the true implied constants are unspecified",
    )


# --------------------------------------------------------------------------
# half-occupancy diagnostics


@dataclass(frozen=True)
class EpsilonProfile:
    """Deviations eps_p = nu_A(p) - p/2 and their moment sums.

    moment_quadratic: sum over p <= Y of (log p / p) (eps_p^2 / p^2);
    moment_linear:    sum over log x <= p <= Y of (1/p) (|eps_p| / p);
    moment_large:     sum over log x <= p <= Y with |eps_p| >= p/4 of 1/p.
    """

    entries: dict
    moment_quadratic: float
    moment_linear: float
    moment_large: float
    x: int
    y_limit: float


def ostmann_epsilon_profile(a, x: int, y_limit: float) -> EpsilonProfile:
    a = IntegerSet.coerce(a)
    if len(a) == 0:
        raise DomainError("A must be non-empty")
    if a.max > x:
        raise DomainError(f"A must lie in [1, {x}]")
    if not math.isfinite(y_limit):
        raise DomainError(f"need a finite y_limit, got {y_limit}")
    entries = {}
    quad = 0.0
    linear = 0.0
    large = 0.0
    log_x = math.log(x)
    plist = primes_up_to(y_limit)
    for p, nu in zip(plist.tolist(), residue_counts(a.array(), plist).tolist()):
        eps = nu - p / 2.0
        entries[p] = eps
        quad += (math.log(p) / p) * (eps * eps) / (p * p)
        if log_x <= p <= y_limit:
            linear += (1.0 / p) * abs(eps) / p
            if abs(eps) >= p / 4.0:
                large += 1.0 / p
    return EpsilonProfile(entries, quad, linear, large, x, y_limit)


@dataclass(frozen=True)
class BudgetCheck:
    lhs: float
    budget: float
    within: bool


def larger_sieve_budget_check(
    profile_a: OccupancyProfile, profile_b: OccupancyProfile, x: int, y_limit: float
) -> BudgetCheck:
    """sum log p / nu_A(p) + sum log p / nu_B(p) over p <= Y against 2(log x + 1).

    The profiles must be complementary (nu_A + nu_B <= p) since no sum may
    vanish mod p; exceeding the budget would force one of the two sets to be
    tiny by the larger sieve.
    """
    lhs = 0.0
    for p in sorted(profile_a.entries):
        if p > y_limit:
            continue
        if p not in profile_b.entries:
            raise DomainError(f"profiles disagree on prime coverage at p={p}")
        nu_a = profile_a.get(p)
        nu_b = profile_b.get(p)
        if nu_a + nu_b > p:
            raise DomainError(
                f"complementarity violated at p={p}: {nu_a} + {nu_b} > {p}"
            )
        if nu_a <= 0 or nu_b <= 0:
            raise DomainError(f"need positive occupancy at p={p}")
        lhs += math.log(p) / nu_a + math.log(p) / nu_b
    budget = 2.0 * (math.log(x) + 1.0)
    return BudgetCheck(lhs, budget, lhs <= budget)


def half_occupancy_identity_gap(profile: EpsilonProfile) -> float:
    """Max gap in the algebraic identity
    log p/(p/2+eps) + log p/(p/2-eps) = p log p/((p/2)^2 - eps^2)
    over the profile's primes with |eps_p| < p/2."""
    worst = 0.0
    for p, eps in profile.entries.items():
        if abs(eps) >= p / 2.0:
            continue
        lp = math.log(p)
        lhs = lp / (p / 2.0 + eps) + lp / (p / 2.0 - eps)
        rhs = p * lp / ((p / 2.0) ** 2 - eps * eps)
        worst = max(worst, abs(lhs - rhs))
    return worst


def ostmann_multiplicative_diagnostic(prof: EpsilonProfile) -> dict:
    """Ratio diagnostic for the closing large-sieve step of the
    half-occupancy analysis, from the profile of A at (x, Y): f(p) =
    (p/2 + eps_p)/(p/2 - eps_p) when |eps_p| <= p/4 (0 otherwise), summed
    over squarefree supported n <= sqrt(x) and compared against
    sqrt(x)/log log x, x >= 3, both ``_power`` values.  Diagnostic only.
    """
    x = prof.x
    if x < 3:
        raise DomainError(f"need x >= 3, got {x}")
    weights = {}
    for p, eps in prof.entries.items():
        if abs(eps) <= p / 4.0:
            weights[p] = (p / 2.0 + eps) / (p / 2.0 - eps)
    root = math.isqrt(x)
    total = lattice_sum(sorted(p for p in weights if p <= root), weights, root)
    bound = 2.0 * _power(x, 1) / total if total > 0 else math.inf
    reference = _power(x, 0.5) / math.log(math.log(x))
    return {
        "sum_f": total,
        "large_sieve_bound": bound,
        "reference_sqrtx_over_loglog": reference,
        "ratio": total / reference if reference > 0 else math.inf,
    }
