"""Local reduced eigenvalue models recycled from a Lanczos basis.

A converged Lanczos run at an expansion point x0 leaves an
M(x0)-orthonormal basis U of dimension m and the projected tridiagonal
T = U^T M K^{-1} M U. For nearby parameters x = x0 + delta the
projected operator is modeled to first order in delta by

    F(x) = Z(x)^{-1/2} (T + sum_j delta_j G_j) Z(x)^{-1/2},
    Z(x) = I + sum_j delta_j S_j,

where S_j = U^T dM_j U accounts for the drift of the M-inner product
and G_j is the projected derivative of M K^{-1} M, computable from the
existing factorization of K(x0) with one back-substitution per basis
column:

    G_j = U^T dM_j Y + (U^T dM_j Y)^T - Y^T dK_j Y,   Y = K^{-1} M U.

The s largest eigenvalues mu_i of F approximate the reciprocals of the
s smallest pencil eigenvalues; the surrogate objective adds a linear
correction g_corr^T delta that makes its gradient match the full
gradient exactly at x0 (the value already matches there since F(x0) is
T itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ClusteredEigenvaluesError,
    ModelConsistencyError,
    SurrogateOutOfRangeError,
)
from .objective import (
    frequencies_from_eigenvalues,
    full_gradient,
    mismatch_gradient,
    weighted_mismatch,
)
from .sparse import write_matrix_market

GAP_TOL = 1e-8
Z_FLOOR = 1e-8


@dataclass
class ReducedModel:
    """First-order surrogate of the updating objective around x0."""

    x0: np.ndarray
    tridiagonal: np.ndarray
    s_hats: list
    g_hats: list
    g_corr: np.ndarray
    measured: np.ndarray
    weights: np.ndarray
    s: int
    value_at_x0: float
    gradient: np.ndarray = None  # full objective gradient at x0
    gap_tol: float = GAP_TOL
    z_floor: float = Z_FLOOR

    @property
    def m(self):
        return self.tridiagonal.shape[0]

    @property
    def n_parameters(self):
        return len(self.s_hats)

    def dump(self, prefix):
        """Write T, S_j, G_j to Matrix Market files for inspection."""
        write_matrix_market("%s_T.mtx" % prefix, self.tridiagonal)
        for j, (s_hat, g_hat) in enumerate(zip(self.s_hats, self.g_hats)):
            write_matrix_market("%s_S%d.mtx" % (prefix, j), s_hat)
            write_matrix_market("%s_G%d.mtx" % (prefix, j), g_hat)


def _sym(a):
    return (a + a.T) * 0.5


def build_reduced_model(problem, evaluation):
    """Assemble the surrogate at a point from its converged full evaluation.

    Cost: m back-substitutions with the existing factorization plus
    sparse products with the parameter increments; no new
    factorization and no new assembly. The full gradient at the point,
    needed for the correction term, is kept as ``model.gradient``.

    Raises ModelConsistencyError if the surrogate value at the point
    differs from the evaluation's value in any bit.
    """
    pencil = problem.pencil
    x0 = evaluation.x
    lanczos_result = evaluation.lanczos
    basis = lanczos_result.basis
    mu_basis = evaluation.m.matvec(basis)
    y = lanczos_result.factor.solve(mu_basis)

    s_hats, g_hats = [], []
    for j in range(pencil.n_parameters):
        dk, dm = pencil.derivative(j)
        dm_basis = dm.matvec(basis)
        s_hats.append(_sym(basis.T @ dm_basis))
        b = basis.T @ (dm.matvec(y))
        c = y.T @ (dk.matvec(y))
        g_hats.append(b + b.T - _sym(c))

    phi0 = evaluation.value
    model = ReducedModel(
        x0=x0.copy(),
        tridiagonal=lanczos_result.tridiagonal.copy(),
        s_hats=s_hats,
        g_hats=g_hats,
        g_corr=np.zeros(pencil.n_parameters),
        measured=problem.measured.copy(),
        weights=problem.weights.copy(),
        s=problem.s,
        value_at_x0=phi0,
    )

    # gradient correction: surrogate gradient must equal the full one at x0
    model.gradient = full_gradient(problem, evaluation)
    model.g_corr = model.gradient - reduced_gradient(model, x0)

    # the surrogate value needs no offset at x0: F(x0) is T itself
    value0, _ = evaluate_reduced(model, x0)
    if value0 != phi0:
        raise ModelConsistencyError(
            "surrogate value %r differs from the full value %r at its own "
            "expansion point" % (value0, phi0)
        )
    return model


def _reduced_eigensystem(model, x):
    """Eigen-decomposition of F(x); returns (delta, mu, y, z, zmh)."""
    x = np.asarray(x, dtype=np.float64)
    delta = x - model.x0
    if delta.shape != (model.n_parameters,):
        raise ValueError("parameter vector has wrong length")
    z = np.eye(model.m)
    c = model.tridiagonal.copy()
    for dj, s_hat, g_hat in zip(delta, model.s_hats, model.g_hats):
        z += dj * s_hat
        c += dj * g_hat
    zvals, zvecs = sla.eigh(z)
    if zvals[0] <= model.z_floor:
        raise SurrogateOutOfRangeError(
            "metric eigenvalue %g at distance %g: point too far from the "
            "expansion point" % (float(zvals[0]), float(np.max(np.abs(delta))))
        )
    zmh = (zvecs * zvals**-0.5) @ zvecs.T
    f = zmh @ c @ zmh
    mu, vec = sla.eigh(f)
    return delta, mu, vec, z, zmh


def _leading(model, mu):
    """Indices of the s largest Ritz values, checked for positivity.

    The surrogate approximates the smallest pencil eigenvalues by the
    largest eigenvalues of the reduced operator, which are positive as
    long as the linearization is trustworthy. A nonpositive value means
    x is too far from the expansion point for the model to make sense.
    """
    order = np.argsort(mu)[::-1][: model.s]
    if mu[order[-1]] <= 0.0:
        raise SurrogateOutOfRangeError(
            "reduced operator lost positive definiteness (Ritz value %g)"
            % float(mu[order[-1]])
        )
    return order


def evaluate_reduced(model, x):
    """Surrogate objective value and frequencies at x.

    Raises SurrogateOutOfRangeError when the metric Z(x) loses positive
    definiteness, i.e. x is outside the model's trust neighborhood.
    """
    delta, mu, _, _, _ = _reduced_eigensystem(model, x)
    order = _leading(model, mu)
    lam_hat = 1.0 / mu[order]  # descending mu -> ascending lambda
    f_hat = frequencies_from_eigenvalues(lam_hat)
    value = weighted_mismatch(f_hat, model.measured, model.weights) + float(
        model.g_corr @ delta
    )
    return value, f_hat


def reduced_gradient(model, x):
    """Gradient of the surrogate objective at x."""
    return _evaluate_core(model, x, need_value=False)[2]


def evaluate_reduced_with_gradient(model, x):
    """Surrogate value, frequencies, and gradient in one pass."""
    value, f_hat, grad = _evaluate_core(model, x, need_value=True)
    return value, f_hat, grad


def _evaluate_core(model, x, need_value):
    delta, mu, vec, z, zmh = _reduced_eigensystem(model, x)
    descending = np.argsort(mu)[::-1]
    order = _leading(model, mu)
    mu_lead = mu[order]

    # sensitivity formula needs simple leading eigenvalues
    check = mu[descending[: min(model.s + 1, model.m)]]
    rel_gaps = np.abs(np.diff(check)) / np.abs(check[:-1])
    if np.any(rel_gaps < model.gap_tol):
        raise ClusteredEigenvaluesError(
            "leading reduced eigenvalues nearly coincide (relative gap %g)"
            % float(rel_gaps.min())
        )

    lam_hat = 1.0 / mu_lead  # descending mu -> ascending lambda
    f_hat = frequencies_from_eigenvalues(lam_hat)

    u = zmh @ vec[:, order]  # generalized eigenvectors of (C, Z)
    uzu = np.einsum("ai,ai->i", u, z @ u)
    dmu = np.empty((model.s, model.n_parameters))
    for j in range(model.n_parameters):
        gu = model.g_hats[j] @ u - model.s_hats[j] @ u * mu_lead[None, :]
        dmu[:, j] = np.einsum("ai,ai->i", u, gu) / uzu

    dlam = -dmu / mu_lead[:, None] ** 2
    grad = mismatch_gradient(
        f_hat, lam_hat, dlam, model.measured, model.weights
    ) + model.g_corr
    if need_value:
        value = weighted_mismatch(f_hat, model.measured, model.weights) + float(
            model.g_corr @ delta
        )
        return value, f_hat, grad
    return None, f_hat, grad
