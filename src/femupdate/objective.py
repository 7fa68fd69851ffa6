"""Frequency-mismatch objective on a parametric pencil.

phi(x) = r^T r with residuals r_i = w_i (f_i(x) - fbar_i), where f_i(x)
are the s smallest natural frequencies of the pencil at x, fbar are the
measured targets, and the weight vector w has unit Euclidean norm.
Frequencies derive from pencil eigenvalues as f = sqrt(lambda) / (2 pi).
The gradient is 2 J^T r, J = d r / d x (s x p, ``residual_jacobian``).
Solvers start at the all-ones point of a scaled pencil, which holds
the target-free data there (``_held``): later solves from that start
pay no factorization. It holds the start's eigenvalues, tridiagonal,
d lambda and S_j/A_j/B_j, not the run's n-row arrays. Value, residuals and
gradient are per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ClusteredEigenvaluesError, DimensionMismatchError
from .lanczos import lanczos_smallest

TWO_PI = 2.0 * np.pi
GAP_TOL = 1e-8  # smallest relative gap between differentiated eigenvalues


def frequencies_from_eigenvalues(eigenvalues):
    """Natural frequencies (Hz) from pencil eigenvalues (rad/s)^2."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if np.any(lam < 0.0):
        raise ValueError(
            "negative eigenvalue %g: pencil is not positive definite"
            % float(lam.min())
        )
    return np.sqrt(lam) / TWO_PI


def make_weights(weights, measured):
    """Unit-norm weight vector for the frequency mismatch.

    ``weights`` is a mode or a vector: 'uniform' weights all modes alike;
    'relative' weights each mode by the reciprocal of its measured
    frequency (so the objective tracks relative errors); a vector, one
    finite nonnegative weight per mode and not all zero, is normalized.
    """
    f = np.asarray(measured, dtype=np.float64)
    if not isinstance(weights, str):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != f.shape:
            raise DimensionMismatchError("custom weights must match target length")
        if not (np.all(np.isfinite(w) & (w >= 0.0)) and np.any(w > 0.0)):
            raise ValueError("custom weights must be finite, nonnegative and not all zero")
    elif weights == "uniform":
        w = np.ones_like(f)
    elif weights == "relative":
        if np.any(f == 0.0):
            raise ValueError("relative weights need nonzero measured frequencies")
        w = 1.0 / f
    else:
        raise ValueError("unknown weight mode '%s'" % weights)
    return w / np.linalg.norm(w)


def residuals(f_computed, f_measured, weights):
    """The weighted frequency residuals r_i = w_i (f_i - fbar_i)."""
    return weights * (np.asarray(f_computed) - np.asarray(f_measured))


def weighted_mismatch(f_computed, f_measured, weights):
    """The objective value r^T r."""
    r = residuals(f_computed, f_measured, weights)
    return float(r @ r)


@dataclass
class UpdatingProblem:
    """A model-updating instance: pencil, feasible box, and targets.

    Parameters are validated on construction: at least one free
    parameter, finite positive nondecreasing targets, box matching
    the parameter count, finite positive tolerances (``lanczos_tol``
    below 1e-2). ``weights`` is a mode or a vector, as ``make_weights``
    takes it, and holds the unit-norm vector once constructed.
    """

    pencil: object
    box: object
    measured: np.ndarray
    weights: object = "uniform"
    lanczos_tol: float = 1e-5
    criticality_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        m = self.measured = np.asarray(self.measured, dtype=np.float64)
        if self.pencil.n_parameters == 0:
            raise ValueError("empty free-parameter set: nothing to update")
        # a relative eigenvalue bound of 0.1 already let wrong modes through on vault
        for key, below, rule in (("lanczos_tol", 1e-2, " and below 1e-2"), ("criticality_tol", np.inf, "")):
            tol = getattr(self, key)
            if not 0.0 < tol < below:  # NaN fails too
                raise ValueError("%s must be positive and finite%s, got %r" % (key, rule, tol))
        if len(self.box) != self.pencil.n_parameters:
            raise DimensionMismatchError(
                "box has %d bounds for %d parameters"
                % (len(self.box), self.pencil.n_parameters)
            )
        if m.ndim != 1 or m.size == 0:
            raise ValueError("measured frequencies must be a nonempty vector")
        if not (np.all(np.isfinite(m) & (m > 0.0)) and np.all(np.diff(m) >= 0.0)):
            raise ValueError("measured frequencies must be finite, positive and nondecreasing")
        self.weights = make_weights(self.weights, m)

    @property
    def s(self):
        return self.measured.size

    def scaled_by(self, reference):
        """The same problem over scaled parameters y = x / reference."""
        return replace(
            self,
            pencil=self.pencil.scaled_by(reference),
            box=self.box.scaled_by(reference),
        )

    def scaled_from(self, x0=None):
        """(scaled problem, reference): the problem rescaled so that the
        start x0 (physical units; default the box midpoint) becomes the
        all-ones vector, and x0 itself as the scaling reference."""
        reference = np.asarray(
            self.box.midpoint() if x0 is None else x0, dtype=np.float64
        )
        if np.any(reference <= 0.0):
            raise ValueError("starting point must be strictly positive for scaling")
        if not self.box.contains(reference):
            raise ValueError("starting point lies outside the feasible box")
        return self.scaled_by(reference), reference


@dataclass
class EvalCounter:
    """Tally of the expensive operations of a run."""

    factorizations: int = 0
    lanczos_runs: int = 0


@dataclass
class FullEvaluation:
    """Objective value, frequencies, and eigendata at the point x."""

    value: float
    frequencies: np.ndarray
    lanczos: object
    x: np.ndarray


def evaluate_full(problem, x, counter=None):
    """Evaluate phi(x) through a factorization and Lanczos run (see ``_held``).

    At a held start, once its d lambda and S_j, A_j, B_j are held too, the
    run carries only eigenvalues and tridiagonal: its basis, solves and
    vectors are None."""
    x = np.array(x, dtype=np.float64)

    def run():
        k, m = problem.pencil.evaluate(x)
        if counter is not None:
            counter.factorizations += 1
            counter.lanczos_runs += 1
        return lanczos_smallest(k, m, problem.s, tol=problem.lanczos_tol, seed=problem.seed)

    res = _held(problem, x, "lanczos", run)
    f = frequencies_from_eigenvalues(res.eigenvalues)
    return FullEvaluation(
        value=weighted_mismatch(f, problem.measured, problem.weights),
        frequencies=f,
        lanczos=res,
        x=x,
    )


def _held(problem, x, name, compute):
    """``compute()``: the Lanczos run, d lambda, or S_j, A_j and B_j at x. At the
    all-ones point the pencil holds it, read-only, for one (s, lanczos_tol, seed).
    Once all three are held, the run keeps only its eigenvalues and
    tridiagonal: nothing reads its n-row arrays again."""
    pencil, key = problem.pencil, (problem.s, problem.lanczos_tol, problem.seed)
    if not np.array_equal(x, np.ones(pencil.n_parameters)):
        return compute()
    held = pencil._start
    if held.get("key") != key:
        held = pencil._start = {"key": key}
    if name not in held:
        out = held[name] = compute()
        for a in out if isinstance(out, tuple) else vars(out).values():
            a.flags.writeable = False
        if held.keys() >= {"lanczos", "dlam", "hats"}:
            held["lanczos"] = replace(held["lanczos"], vectors=None, basis=None, solves=None)
    return held[name]


def require_separated(values, what):
    """Raise ClusteredEigenvaluesError when two consecutive values are
    closer than GAP_TOL relative to the first of the two."""
    rel_gaps = np.abs(np.diff(values)) / np.abs(values[:-1])
    if np.any(rel_gaps < GAP_TOL):
        raise ClusteredEigenvaluesError(
            "%s nearly coincide (relative gap %g)" % (what, float(rel_gaps.min()))
        )


def eigenvalue_derivatives(pencil, eigenvalues, vectors):
    """d lambda_i / d x_j for the pencil, given eigenpairs at a point.

    The vectors must be M-normalized (v_i^T M(x) v_i = 1), as Lanczos
    Ritz vectors are. Uses the standard first-order formula for simple
    eigenvalues: v_i^T (dK_j - lambda_i dM_j) v_i, with each increment
    applied on its own rows and empty increments skipped.

    Raises ClusteredEigenvaluesError when two consecutive eigenvalues
    are closer than GAP_TOL relative to the smaller one: a repeated
    eigenvalue has no derivative, only directional ones.
    """
    lam = np.asarray(eigenvalues)
    require_separated(lam, "eigenvalues to differentiate")
    out = np.zeros((len(eigenvalues), pencil.n_parameters))
    for j in range(pencil.n_parameters):
        dk, dm = pencil.derivative(j)
        for coef, inc in ((1.0, dk), (-lam, dm)):
            if inc.pattern.nnz:  # v_i^T dA v_i on the increment's own rows
                rows, q = inc.local()
                v = vectors[rows]
                out[:, j] += coef * np.einsum("ni,ni->i", v, q @ v)
    return out


def residual_jacobian(eigenvalues, dlam, weights):
    """Jacobian J of r from d lambda_i (row i of ``dlam``) by r_i' = d r_i /
    d lambda_i = w_i / (4 pi sqrt(lambda_i)): the one place where
    f = sqrt(lambda) / (2 pi) is differentiated."""
    slope = weights / (2.0 * TWO_PI * np.sqrt(eigenvalues))
    return slope[:, None] * dlam


def full_gradient(problem, evaluation):
    """Gradient 2 J^T r of phi at the point of a converged full evaluation."""
    lam, vectors = evaluation.lanczos.eigenvalues, evaluation.lanczos.vectors
    (dlam,) = _held(problem, evaluation.x, "dlam", lambda: (
        eigenvalue_derivatives(problem.pencil, lam, vectors),))
    r = residuals(evaluation.frequencies, problem.measured, problem.weights)
    return 2.0 * r @ residual_jacobian(lam, dlam, problem.weights)
