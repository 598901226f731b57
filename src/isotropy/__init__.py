"""Exact computation with the isotropy groups of symmetric matrix pencils
in canonical form.

The package computes, over the exact field of Gaussian rationals extended
by sqrt(2), the group of complex orthogonal matrices Q satisfying
Q^T S Q = S for a symmetric matrix S built from a single Jordan structure,
together with its dimension, explicit unipotent and block-diagonal
generators, random exact elements, and the codimension of the congruence
orbit of S.

Importing the package runs none of its modules.  The first public name
read from it loads the whole library, in the order below, and binds every
name of __all__; __version__ is there from the start.  A submodule
imported directly (`from isotropy.forms import ...`, as the command line
does) loads only itself and what it imports.
"""

__version__ = "0.1.0"

__all__ = [
    "CongruenceData",
    "DimensionMismatchError",
    "ExactMatrix",
    "ExactScalar",
    "FreeParams",
    "GeneratorSpec",
    "IntegrityError",
    "IsotropyDescription",
    "IsotropyError",
    "MembershipError",
    "MultiSegreStructure",
    "OrbitReport",
    "ParameterError",
    "RandomSource",
    "Rational",
    "ScalarParseError",
    "SeedConstraintError",
    "SegreStructure",
    "SequencingError",
    "ShapeViolationError",
    "SingularMatrixError",
    "SplitMix64",
    "StructureError",
    "ToeplitzForm",
    "backward_form",
    "block_backward_form",
    "catalan_coeff",
    "catalan_series",
    "cayley_orthogonal",
    "codim_formula",
    "commutant_basis",
    "commutant_dimension",
    "conjugate_by_omega",
    "consistency_check",
    "describe_isotropy",
    "direct_sum",
    "dumps_canonical",
    "enumerate_structures",
    "factor_unipotent",
    "format_scalar",
    "free_parameter_count",
    "from_toeplitz_coordinates",
    "gen_G",
    "gen_V",
    "gen_W",
    "gen_two_block",
    "generator_from_spec",
    "group_element_inv",
    "group_element_mul",
    "identity",
    "interleave_form",
    "jordan_form",
    "matrix_from_json",
    "matrix_to_json",
    "parse_scalar",
    "random_free_params",
    "rat",
    "sample_isotropy_element",
    "solution_dimension",
    "solve_congruence",
    "structure_from_json",
    "structure_to_json",
    "symmetric_form",
    "tangent_oracle",
    "to_toeplitz_coordinates",
    "transition_form",
    "verify_congruence",
    "verify_isotropy",
    "zeros",
    "__version__",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .errors import (DimensionMismatchError, IntegrityError, IsotropyError,
                         MembershipError, ParameterError, ScalarParseError,
                         SeedConstraintError, SequencingError,
                         ShapeViolationError, SingularMatrixError,
                         StructureError)
    from .scalars import (ExactScalar, Rational, format_scalar, parse_scalar,
                          rat)
    from .matrices import (ExactMatrix, cayley_orthogonal, direct_sum,
                           identity, zeros)
    from .forms import (MultiSegreStructure, SegreStructure, backward_form,
                        block_backward_form, codim_formula,
                        commutant_dimension, enumerate_structures,
                        free_parameter_count, interleave_form, jordan_form,
                        solution_dimension, symmetric_form, transition_form)
    from .rng import RandomSource, SplitMix64
    from .toeplitz import ToeplitzForm, commutant_basis, conjugate_by_omega
    from .solver import (CongruenceData, FreeParams, random_free_params,
                         solve_congruence, verify_congruence)
    from .generators import (GeneratorSpec, catalan_coeff, catalan_series,
                             factor_unipotent, gen_G, gen_V, gen_W,
                             gen_two_block, generator_from_spec)
    from .stabilizer import (IsotropyDescription, describe_isotropy,
                             from_toeplitz_coordinates, group_element_inv,
                             group_element_mul, sample_isotropy_element,
                             to_toeplitz_coordinates, verify_isotropy)
    from .orbit import OrbitReport, consistency_check, tangent_oracle
    from .jsonio import (dumps_canonical, matrix_from_json, matrix_to_json,
                         structure_from_json, structure_to_json)
    found = locals()
    globals().update((key, found[key]) for key in __all__ if key in found)
    return found[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
