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

from .baselines import solve_baseline
from .config import load_config
from .errors import (
    ClusteredEigenvaluesError,
    ConfigError,
    DimensionMismatchError,
    MaxIterationsError,
    ModelConsistencyError,
    NotPositiveDefiniteError,
    NumericalError,
    SubspaceExhaustedError,
    SurrogateOutOfRangeError,
)
from .fem import Material, Mesh, assemble_parametric
from .lanczos import LanczosResult, lanczos_smallest
from .objective import (
    EvalCounter,
    UpdatingProblem,
    evaluate_full,
    frequencies_from_eigenvalues,
    full_gradient,
    weighted_mismatch,
)
from .pencil import FeasibleBox, ParametricPencil
from .reduced import build_reduced_model, evaluate_reduced, reduced_gradient
from .sparse import SparseSymMatrix
from .trustregion import solve

__version__ = "0.1.0"

__all__ = [
    "ClusteredEigenvaluesError",
    "ConfigError",
    "DimensionMismatchError",
    "EvalCounter",
    "FeasibleBox",
    "LanczosResult",
    "Material",
    "MaxIterationsError",
    "Mesh",
    "ModelConsistencyError",
    "NotPositiveDefiniteError",
    "NumericalError",
    "ParametricPencil",
    "SparseSymMatrix",
    "SubspaceExhaustedError",
    "SurrogateOutOfRangeError",
    "UpdatingProblem",
    "assemble_parametric",
    "build_reduced_model",
    "evaluate_full",
    "evaluate_reduced",
    "frequencies_from_eigenvalues",
    "full_gradient",
    "lanczos_smallest",
    "load_config",
    "reduced_gradient",
    "solve",
    "solve_baseline",
    "weighted_mismatch",
]
