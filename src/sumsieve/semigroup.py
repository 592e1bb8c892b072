"""Sets of integers composed only of primes from a chosen set: exact
enumeration, density-exponent estimation from Mertens-type sums, and the
mean-value (Wirsing-style) finite-x estimate for the counting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import EULER_GAMMA, _capped_lattice, gamma_function
from .errors import CapacityError, DegenerateInputError, DomainError
from .primes import VALUE_CAP, PrimeSubset
from .sumset import IntegerSet

_ENUM_X_CAP = 10**9
_TAU_MESH_POINTS = 32


@dataclass(frozen=True)
class SemigroupStats:
    tau_hat: float
    C_hat: Optional[float] = None
    residual_rms: Optional[float] = None


def enumerate_q(ps: PrimeSubset, x: int) -> IntegerSet:
    """All n <= x whose prime factors all lie in ps, ascending; includes 1.
    More than VALUE_CAP of them raise CapacityError."""
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if x > _ENUM_X_CAP:
        raise CapacityError(f"x = {x} exceeds enumeration cap {_ENUM_X_CAP}")
    refusal = f"Q(T) up to {x} has more than {VALUE_CAP} elements, past the memory cap"
    return IntegerSet(_capped_lattice(ps.primes_in(1, x).tolist(), x, VALUE_CAP, refusal))


def estimate_tau(ps: PrimeSubset, x: int) -> SemigroupStats:
    """Least-squares slope of sum_{p <= t} log p / p against log t.

    The mesh is 32 logarithmically spaced points on [x^(1/4), x]; the slope
    estimates the density exponent tau, the intercept the Mertens-type
    constant.  The RMS residual is reported so callers can reject bad fits.
    """
    if x < 10**4:
        raise DomainError(f"need x >= 10^4, got {x}")
    mesh = np.exp(np.linspace(math.log(x) / 4.0, math.log(x), _TAU_MESH_POINTS))
    if np.unique(np.floor(mesh)).size < 2:
        raise DegenerateInputError("tau mesh collapsed; x too small")
    primes = ps.primes_in(1, x)
    if primes.size:
        contrib = np.log(primes.astype(np.float64)) / primes
        cumulative = np.cumsum(contrib)
        idx = np.searchsorted(primes, mesh, side="right")
        sums = np.where(idx > 0, cumulative[np.maximum(idx - 1, 0)], 0.0)
    else:
        sums = np.zeros(mesh.shape)
    logt = np.log(mesh)
    coeffs, residuals, _, _ = np.linalg.lstsq(
        np.vstack([logt, np.ones_like(logt)]).T, sums, rcond=None
    )
    tau_hat, c_hat = float(coeffs[0]), float(coeffs[1])
    fitted = tau_hat * logt + c_hat
    rms = float(np.sqrt(np.mean((sums - fitted) ** 2)))
    return SemigroupStats(tau_hat, C_hat=c_hat, residual_rms=rms)


def wirsing_estimate(ps: PrimeSubset, x: int, tau: float) -> float:
    """Finite-x mean-value estimate for the counting function of Q(T):

        x / log x * exp(-gamma tau) / Gamma(tau) * prod_{p <= x, p in T} p/(p-1)

    The product factor 1 + 1/p + 1/p^2 + ... = p/(p-1) carries the full
    prime-power tail exactly; the product is accumulated in log domain.
    No correction for the o(1) terms is attempted.
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"need 0 < tau < 1, got {tau}")
    if x < 3:
        raise DomainError(f"need x >= 3, got {x}")
    log_prod = 0.0
    for p in ps.primes_in(1, x).tolist():
        log_prod += math.log(p / (p - 1.0))
    return (
        x
        / math.log(x)
        * math.exp(-EULER_GAMMA * tau)
        / gamma_function(tau)
        * math.exp(log_prod)
    )


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    status: str  # "pass" | "marginal" | "fail"
    value: float
    detail: str


@dataclass(frozen=True)
class WirsingHypothesesReport:
    checks: tuple[HypothesisCheck, ...]
    tau_hat: float

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def verify_hypotheses_wirsing(ps: PrimeSubset, x: int) -> WirsingHypothesesReport:
    """Numerical health checks for applying the mean-value estimate at x.

    1: the Mertens-type sum grows linearly in log t with slope in (0, 1);
    2: the prime values of the indicator are bounded (trivially true);
    3: the prime-power tail sum converges (explicit truncation + tail bound);
    4: prime powers p^n <= x, n >= 2, are sparse against x / log x.
    """
    stats = estimate_tau(ps, x)
    logt_range = 0.75 * math.log(x)
    # residual scale measured against the fitted rise over the mesh;
    # well-distributed subsets sit near 0.01, concentrated ones near 0.09
    rise = max(abs(stats.tau_hat) * logt_range, 1e-12)
    rel = (stats.residual_rms or 0.0) / rise if stats.tau_hat != 0 else math.inf
    if 0.0 < stats.tau_hat < 1.0 and rel <= 0.03:
        h1 = HypothesisCheck("mertens_sum_linear", "pass", stats.tau_hat,
                             f"tau_hat={stats.tau_hat:.4f}, rel_resid={rel:.3g}")
    elif 0.0 < stats.tau_hat < 1.0 and rel <= 0.06:
        h1 = HypothesisCheck("mertens_sum_linear", "marginal", stats.tau_hat,
                             f"tau_hat={stats.tau_hat:.4f}, rel_resid={rel:.3g}")
    else:
        h1 = HypothesisCheck("mertens_sum_linear", "fail", stats.tau_hat,
                             f"tau_hat={stats.tau_hat:.4f} outside (0,1) or rel_resid={rel:.3g}")

    h2 = HypothesisCheck("prime_values_bounded", "pass", 1.0, "indicator values are 0 or 1")

    tail_primes = ps.primes_in(1, x)
    tail_sum = float(np.sum(1.0 / (tail_primes.astype(np.float64) * (tail_primes - 1.0)))) if tail_primes.size else 0.0
    tail_bound = 1.0 / x
    h3 = HypothesisCheck(
        "prime_power_tail_converges", "pass", tail_sum,
        f"truncated sum {tail_sum:.6g}, tail below {tail_bound:.3g}",
    )

    power_count = 0
    for p in ps.primes_in(1, math.isqrt(x)).tolist():
        m = p * p
        while m <= x:
            power_count += 1
            m *= p
    sparse_ref = x / math.log(x)
    ratio = power_count / sparse_ref
    status4 = "pass" if ratio <= 1.0 else ("marginal" if ratio <= 10.0 else "fail")
    h4 = HypothesisCheck("square_and_higher_powers_sparse", status4, ratio,
                         f"{power_count} prime powers vs x/log x = {sparse_ref:.4g}")

    return WirsingHypothesesReport((h1, h2, h3, h4), stats.tau_hat)


def max_gap(values: IntegerSet) -> int:
    """Largest gap between consecutive elements (a plain diagnostic)."""
    arr = values.array()
    if arr.size < 2:
        return 0
    return int(np.diff(arr).max())
