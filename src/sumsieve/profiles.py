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
    Every constant must be finite, and c_override, a ratio of theta sums,
    must lie in [0, 1]; DomainError otherwise."""
    profile = replace(STRICT, name="scaled", **overrides)
    for key, value in overrides.items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"profile constant {key} must be finite, got {value}")
    if profile.c_override is not None and not 0 <= profile.c_override <= 1:
        raise DomainError(f"c_override must lie in [0, 1], got {profile.c_override}")
    return profile
