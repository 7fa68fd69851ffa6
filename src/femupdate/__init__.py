"""Finite element model updating from measured natural frequencies.

The package calibrates material parameters (Young's modulus, density)
of a parametric structural model so that its lowest natural
frequencies match measured targets. The stiffness and mass matrices
depend affinely on the parameters, eigenvalues come from a
shift-invert Lanczos iteration whose byproducts feed a local reduced
model, and a box-constrained trust-region loop drives the match. One
sparse factorization per outer iteration is the design target.

Typical use::

    from femupdate import benchmarks, assemble_parametric
    from femupdate import UpdatingProblem, evaluate_full, solve

    mesh, materials = benchmarks.benchmark("arch")
    pencil, box, start = assemble_parametric(mesh, materials)
    targets = evaluate_full(
        UpdatingProblem(pencil, box, measured=[1.0] * 5),
        [5000.0, 2200.0, 4800.0],
    ).frequencies
    problem = UpdatingProblem(pencil, box, measured=targets)
    result = solve(problem)
    print(result.x, result.frequencies)
"""

from .baselines import BaselineResult, solve_baseline
from .boxmin import BoxMinResult, minimize_box, projected_gradient_norm
from .config import RunSetup, load_config
from .errors import (
    ClusteredEigenvaluesError,
    ConfigError,
    DimensionMismatchError,
    MaxIterationsError,
    ModelConsistencyError,
    NotPositiveDefiniteError,
    SubspaceExhaustedError,
    SurrogateOutOfRangeError,
)
from .fem import Material, Mesh, assemble_parametric, region_operators
from .lanczos import LanczosResult, lanczos_smallest
from .objective import (
    EvalCounter,
    FullEvaluation,
    UpdatingProblem,
    evaluate_full,
    frequencies_from_eigenvalues,
    full_gradient,
    make_weights,
    weighted_mismatch,
)
from .pencil import FeasibleBox, ParametricPencil, default_start
from .reduced import (
    ReducedModel,
    build_reduced_model,
    evaluate_reduced,
    evaluate_reduced_with_gradient,
    reduced_gradient,
)
from .sparse import (
    CholeskyFactor,
    SparseSymMatrix,
    SymmetricPattern,
    cholesky_factorize,
    read_matrix_market,
    write_matrix_market,
)
from .trustregion import (
    OuterRecord,
    SolveResult,
    TrustRegionConfig,
    criticality,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BoxMinResult",
    "CholeskyFactor",
    "ClusteredEigenvaluesError",
    "ConfigError",
    "DimensionMismatchError",
    "EvalCounter",
    "FeasibleBox",
    "FullEvaluation",
    "LanczosResult",
    "Material",
    "MaxIterationsError",
    "Mesh",
    "ModelConsistencyError",
    "NotPositiveDefiniteError",
    "OuterRecord",
    "ParametricPencil",
    "ReducedModel",
    "RunSetup",
    "SolveResult",
    "SparseSymMatrix",
    "SubspaceExhaustedError",
    "SymmetricPattern",
    "SurrogateOutOfRangeError",
    "TrustRegionConfig",
    "UpdatingProblem",
    "assemble_parametric",
    "build_reduced_model",
    "cholesky_factorize",
    "criticality",
    "default_start",
    "evaluate_full",
    "evaluate_reduced",
    "evaluate_reduced_with_gradient",
    "frequencies_from_eigenvalues",
    "full_gradient",
    "lanczos_smallest",
    "load_config",
    "make_weights",
    "minimize_box",
    "projected_gradient_norm",
    "read_matrix_market",
    "reduced_gradient",
    "region_operators",
    "solve",
    "solve_baseline",
    "weighted_mismatch",
    "write_matrix_market",
]
