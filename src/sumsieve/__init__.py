"""sumsieve: exact sieve bounds, smooth-number counts and sumset
decomposition search on finite integer sets."""

from .errors import (
    CapacityError,
    DegenerateInputError,
    DivisibilityError,
    DomainError,
    SumsieveError,
)
from .primes import (
    ALL,
    And,
    Excluding,
    Interval,
    MinValue,
    PrimeSubset,
    PrimeSums,
    PrimeTable,
    ResidueClass,
    all_primes,
    build_prime_table,
    density_ratio_c,
    subset_sums,
)
from .arith import (
    EULER_GAMMA,
    MultiplicativeSpec,
    check_comparison_inequality,
    enumerate_squarefree_supported,
    euler_phi,
    factorize,
    gamma_function,
    mobius,
    restricted_multiplicative_sum,
    tau3,
)
from .profiles import STRICT, ConstantsProfile, scaled
from .sumset import (
    DecompositionResult,
    IntegerSet,
    decompose_binary,
    decompose_binary_relative,
    decompose_ternary_via_ruzsa,
    ruzsa_check,
    sumset,
)
from .sieves import (
    OccupancyProfile,
    SieveBoundReport,
    inverse_sieve_lower_bound,
    large_sieve_bound,
    larger_sieve_bound,
    middlek_bound,
    occupancy,
    prop_smallkbv_bound,
    prop_smallkscs_bound,
    selberg_bound,
    sift_count,
)
from .smooth import (
    SmoothQuery,
    bv_discrepancy_sum,
    dickman_rho,
    enumerate_smooth,
    psi,
    psi_coprime,
    smooth_tuple_count,
)
from .semigroup import (
    SemigroupStats,
    enumerate_q,
    estimate_tau,
    verify_hypotheses_wirsing,
    wirsing_estimate,
)
from .irreducibility import (
    GenThmContext,
    build_context,
    check_bv_condition,
    check_scs_condition,
    conclusion_bounds,
    larger_sieve_budget_check,
    ostmann_epsilon_profile,
)

__version__ = "0.1.0"
