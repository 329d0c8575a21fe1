"""Conserved quantities of translationally invariant Lindblad dynamics on spin-1/2 rings."""

import types

__version__ = "0.1.0"

from .pauli import PauliOperator, format_operator, parse_operator
from .generators import (
    LindbladGenerator,
    basis_strings,
    kernel,
    superop_matrix,
)
from .rings import (
    CanonicalParams,
    canonical_form,
    check_conservation,
    classify_ising,
    global_conservation_residual,
    local_conservation_check,
)
from .obstruction import (
    DefinitenessReport,
    ObstructionMatrix,
    QuadraticForm,
    assemble_C_2site,
    assemble_C_3site,
    certify_definiteness,
    closed_form_C_2site,
    conservation_forms,
    c2prime_diagnostics,
    family_grid,
    scan,
    unitality_forms,
)
from .feasibility import (
    AffineConstraints,
    FeasibilityProblem,
    FeasibilityResult,
    build_affine_constraints,
    generator_from_point,
    pack_point,
    parse_problem_file,
    search,
    unpack_point,
    verify_candidate,
)

# the public names are those imported above, plus the version
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if name[0] != "_" and not isinstance(value, types.ModuleType)]
