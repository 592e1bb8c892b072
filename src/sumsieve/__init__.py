"""sumsieve: exact sieve bounds, smooth-number counts and sumset
decomposition search on finite integer sets.

Each public name below is imported from its layer on first use (PEP 562) and
then kept here, so ``import sumsieve`` loads no layer.
"""

import importlib
import sys
import types

# layer module -> the public names it defines
_EXPORTS = {
    "errors": ("CapacityError", "DegenerateInputError", "DivisibilityError", "DomainError",
               "SumsieveError"),
    "primes": ("ALL", "And", "Excluding", "Interval", "MinValue", "PrimeSubset", "PrimeSums",
               "PrimeTable", "ResidueClass", "all_primes", "density_ratio_c", "subset_sums"),
    "arith": ("EULER_GAMMA", "MultiplicativeSpec", "check_comparison_inequality",
              "enumerate_squarefree_supported", "euler_phi", "factorize", "gamma_function",
              "mobius", "restricted_multiplicative_sum", "tau3"),
    "profiles": ("STRICT", "ConstantsProfile", "scaled"),
    "sumset": ("DecompositionResult", "IntegerSet", "decompose_binary",
               "decompose_binary_relative", "decompose_ternary_via_ruzsa", "ruzsa_check",
               "sumset"),
    "sieves": ("OccupancyProfile", "SieveBoundReport", "inverse_sieve_lower_bound",
               "large_sieve_bound", "larger_sieve_bound", "middlek_bound", "occupancy",
               "prop_smallkbv_bound", "prop_smallkscs_bound", "selberg_bound", "sift_count"),
    "smooth": ("SmoothQuery", "bv_discrepancy_sum", "dickman_rho", "enumerate_smooth", "psi",
               "psi_coprime", "smooth_tuple_count"),
    "semigroup": ("SemigroupStats", "enumerate_q", "estimate_tau", "verify_hypotheses_wirsing",
                  "wirsing_estimate"),
    "irreducibility": ("GenThmContext", "build_context", "check_bv_condition",
                       "check_scs_condition", "conclusion_bounds", "ostmann_epsilon_profile"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(types.ModuleType):
    """The import system sets each submodule on its package when it first
    loads; the module ``sumset`` must not shadow the function ``sumset``."""

    def __setattr__(self, name, value):
        if name not in _HOME or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
