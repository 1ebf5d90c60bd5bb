"""cycenum: weight enumerators of irreducible cyclic codes.

Finite fields held as trace tables, cyclotomic-coset sieving,
factorization of x**n - 1 through minimal polynomials, exact Gauss sums,
the Gauss-sum weight formula with its brute-force oracle, the MacWilliams
transform, and a classical simulation of bounded-error phase estimation
that recovers exact spectra by divisibility rounding.
"""

__version__ = "0.1.0"

from .characters import (
    GaussSumValue,
    gauss_sum,
    order_d_character_sums,
)
from .codes import (
    CodeSpec,
    factor_xn_minus_1,
    generator_matrix,
    irreducible_cyclic_code,
)
from .cosets import (
    Coset,
    CosetPartition,
    coset_count_formula,
    coset_leaders,
    cosets_full,
    iter_coset_leaders,
    multiplicative_order,
)
from .field import DEFAULT_TABLE_CAP, ExtField, build_ext_field
from .pipeline import (
    MembershipReport,
    PipelineReport,
    digit_sum,
    epsilon_bound,
    icq_membership,
    noisy_gauss_oracle,
    run_pipeline_trials,
    theta,
)
from .weights import (
    WeightEnumerator,
    WeightSpectrum,
    macwilliams_dual,
    s_function,
    weight_spectrum_bruteforce,
    weight_spectrum_mceliece,
)

from . import errors  # noqa: F401  (re-exported as a namespace)

__all__ = [
    "__version__",
    "errors",
    "GaussSumValue", "gauss_sum", "order_d_character_sums",
    "CodeSpec", "factor_xn_minus_1", "generator_matrix", "irreducible_cyclic_code",
    "Coset", "CosetPartition", "coset_count_formula", "coset_leaders",
    "cosets_full", "iter_coset_leaders", "multiplicative_order",
    "DEFAULT_TABLE_CAP", "ExtField", "build_ext_field",
    "MembershipReport", "PipelineReport", "digit_sum",
    "epsilon_bound", "icq_membership", "noisy_gauss_oracle",
    "run_pipeline_trials", "theta",
    "WeightEnumerator", "WeightSpectrum",
    "macwilliams_dual", "s_function", "weight_spectrum_bruteforce",
    "weight_spectrum_mceliece",
]
