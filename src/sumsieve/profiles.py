"""Constants profiles for the irreducibility machinery.

The strict profile pins the exact constants of the irreducibility criterion.
Those make the prime threshold K^e astronomically large at desk scale, so
every evaluator also accepts a scaled profile whose record replaces the
individual constants.  Reports always echo the profile so strict and scaled
verdicts cannot be conflated.
"""

import math
from dataclasses import asdict, dataclass, replace

from .errors import DomainError


@dataclass(frozen=True)
class ConstantsProfile:
    name: str = "strict"
    # K = k_coefficient * (sigma0 * sigma * c^2)^(-1) * log^2 x
    k_coefficient: float = 1000.0
    # P0* = P0 restricted to [K^star_exponent, infinity)
    star_exponent: float = 3.0
    # window sums must reach window_coefficient * k * log x
    window_coefficient: float = 8.0
    # condition thresholds: coefficient * (sigma0 sigma)^(-1), coefficient * sigma0^(-1)
    condition_coefficient: float = 10.0
    # dyadic windows for the density ratio c run down to x^c_floor_exponent
    c_floor_exponent: float = 0.1
    # asserted density ratio; when set, the measured value is still computed
    # and reported alongside so the assertion is never silent
    c_override: float | None = None

    def describe(self) -> dict:
        return asdict(self)


STRICT = ConstantsProfile()


def scaled(**overrides) -> ConstantsProfile:
    """A user-tuned profile; unspecified constants keep their strict values.
    Each constant must lie in its domain, DomainError otherwise: the
    coefficients and star_exponent in (0, inf), c_floor_exponent in (0, 1),
    and c_override, a ratio of theta sums, in [0, 1]."""
    profile = replace(STRICT, name="scaled", **overrides)
    for key, value in overrides.items():
        if key == "c_override":
            ok, domain = value is None or 0 <= value <= 1, "[0, 1]"
        elif key == "c_floor_exponent":
            ok, domain = 0 < value < 1, "(0, 1)"
        else:
            ok, domain = 0 < value < math.inf, "(0, inf)"
        if not ok:  # NaN included
            raise DomainError(f"profile constant {key} must lie in {domain}, got {value}")
    return profile
