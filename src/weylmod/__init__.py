"""Exact structure computations for Weyl modules over affine Kac-Moody algebras.

The package computes, in exact rational (and complex rational) arithmetic:
graded characters of induced modules at non-critical central charge,
Sugawara energy spectra, candidate singular levels and irreducibility
certificates, length bounds, and an explicit truncated PBW realization used
to cross-validate the character-level predictions.
"""

from .affine_numerics import (
    CandidatePair,
    DeltaBound,
    IrreducibilityVerdict,
    candidate_pairs,
    delta_upper_bound,
    in_X_lambda,
    in_Y_lambda,
    irreducibility_certificate,
    kostant_bound_C,
    top_l0_eigenvalue,
)
from .explicit_module import (
    TruncatedWeylModule,
    act,
    annihilator_level,
    build_truncated,
    check_kl_exact_sequence,
    module_json_dict,
    singular_dimensions,
    singular_vectors,
    sugawara_l0,
    virasoro_commutation_check,
)
from .finite_rep import (
    Character,
    DecompositionMultiset,
    casimir_on_irrep,
    irrep_character,
    tensor_decompose,
    weyl_dimension,
)
from .graded_sym import sym_ad_graded, weyl_level_decomposition
from .rational import ComplexRational, format_scalar, parse_scalar
from .root_system import (
    AlgebraData,
    Weight,
    build_algebra,
    enumerate_root_lattice_ball,
    inner_product,
)

__all__ = [
    "AlgebraData",
    "CandidatePair",
    "Character",
    "ComplexRational",
    "DecompositionMultiset",
    "DeltaBound",
    "IrreducibilityVerdict",
    "TruncatedWeylModule",
    "Weight",
    "act",
    "annihilator_level",
    "build_algebra",
    "build_truncated",
    "candidate_pairs",
    "casimir_on_irrep",
    "check_kl_exact_sequence",
    "delta_upper_bound",
    "enumerate_root_lattice_ball",
    "format_scalar",
    "in_X_lambda",
    "in_Y_lambda",
    "inner_product",
    "irreducibility_certificate",
    "irrep_character",
    "kostant_bound_C",
    "module_json_dict",
    "parse_scalar",
    "singular_dimensions",
    "singular_vectors",
    "sugawara_l0",
    "sym_ad_graded",
    "tensor_decompose",
    "top_l0_eigenvalue",
    "virasoro_commutation_check",
    "weyl_dimension",
    "weyl_level_decomposition",
]

__version__ = "0.1.0"
