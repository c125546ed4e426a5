"""su11kit: finite-matrix realizations of the su(1,1) and spin ladder algebras.

The package builds every realization as band-stored or dense matrices on
truncated state spaces, verifies the defining commutators and Casimir closed
forms on the interior states away from the truncation boundary, and
reproduces the exact reduction of two nonlinear coupled oscillators to a free
particle on the pair ladder.
"""

from .algebra import (
    CheckSpec,
    check_adjointness,
    check_casimir,
    check_commutators,
    check_transfo,
    compare_triples,
)
from .linops import (
    BasisMismatchError,
    Check,
    CheckReport,
    CircleBasis,
    FockBasis,
    OperatorMatrix,
    banded,
    diagonal,
    hermitian_eigensystem,
    identity,
    interior_projector,
    maxabs_norm,
    tensor,
)
from .reduction import (
    ModelParams,
    ReductionResult,
    build_direct_hamiltonian,
    build_k_form,
    free_params,
    p0_of,
    pair_energy_closed_form,
    verify_reduction,
)
from .reps import (
    AlgebraTriple,
    RepParams,
    bose_ladder,
    hp_spin,
    mp_realization,
    perelomov_realization,
    quadratures,
    saf_bose_form,
    saf_realization,
    two_mode,
    villain_spin,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTriple",
    "BasisMismatchError",
    "Check",
    "CheckReport",
    "CheckSpec",
    "CircleBasis",
    "FockBasis",
    "ModelParams",
    "OperatorMatrix",
    "ReductionResult",
    "RepParams",
    "banded",
    "bose_ladder",
    "build_direct_hamiltonian",
    "build_k_form",
    "check_adjointness",
    "check_casimir",
    "check_commutators",
    "check_transfo",
    "compare_triples",
    "diagonal",
    "free_params",
    "hermitian_eigensystem",
    "hp_spin",
    "identity",
    "interior_projector",
    "maxabs_norm",
    "mp_realization",
    "p0_of",
    "pair_energy_closed_form",
    "perelomov_realization",
    "quadratures",
    "saf_bose_form",
    "saf_realization",
    "tensor",
    "two_mode",
    "verify_reduction",
    "villain_spin",
]
