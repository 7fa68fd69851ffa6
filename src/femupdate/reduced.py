"""Local reduced eigenvalue models recycled from a Lanczos basis.

A converged Lanczos run at an expansion point x0 leaves an
M(x0)-orthonormal basis U of dimension m and the projected tridiagonal
T = U^T M K^{-1} M U. For nearby parameters x = x0 + delta the
projected operator is modeled to first order in delta by the small
symmetric-definite pencil

    C(x) u = mu Z(x) u,   C(x) = T + sum_j delta_j G_j,
                          Z(x) = I + sum_j delta_j S_j,

where S_j = U^T dM_j U accounts for the drift of the M-inner product
and G_j is the projected derivative of M K^{-1} M:

    G_j = U^T dM_j Y + (U^T dM_j Y)^T - Y^T dK_j Y,   Y = K^{-1} M U.

Y is the stack of the shift-invert solves the Lanczos run made anyway
(``LanczosResult.solves``), so a model costs no back-substitution, only
sparse products with the parameter increments, each on its own rows
(``SparseSymMatrix.local``): with R the rows dM_j touches and Q its
block there, S_j = U_R^T Q U_R and U^T dM_j Y = (Q U_R)^T Y_R share the
product Q U_R. An empty dK_j or dM_j costs nothing.

S_j and G_j are stored stacked as (p, m, m) arrays. One evaluation
factors Z = L L^T, reduces the pencil to the standard symmetric problem
L^{-1} C L^{-T} v = mu v (LAPACK sygst), and solves that with
``lanczos.descending_eigh``, the eigensolver Lanczos uses for T. The
eigenvectors u = L^{-T} v are Z-orthonormal, so the sensitivities are
d mu_i / d delta_j = u_i^T (G_j - mu_i S_j) u_i for all i, j at once.

With all m Z-orthonormal eigenvectors, second-order perturbation theory
of the pencil gives the exact Hessian of every mu_i as well. C and Z are
linear in delta, so with the couplings
c_i[k, j] = u_k^T (G_j - mu_i S_j) u_i (c_i[i, j] = d mu_i / d delta_j)

    d2 mu_i / d delta_j d delta_l
        = 2 sum_{k != i} c_i[k, j] c_i[k, l] / (mu_i - mu_k)
          - c_i[i, j] u_i^T S_l u_i - c_i[i, l] u_i^T S_j u_i,

Each residual r_i = w_i (f_i - fbar_i) moves with mu_i = 1 / lambda_i
alone. ``objective.residual_jacobian`` differentiates it in lambda_i and
the chain rule through lambda_i = 1 / mu_i gives r_i' and r_i'' in mu_i,
so J = diag(r') d mu / d delta, the gradient is 2 J^T r + g_corr and the
Hessian 2 J^T J + sum_i 2 r_i (r_i' d2 mu_i + r_i'' grad mu_i grad mu_i^T)
(the linear g_corr^T delta adds nothing). The sums over k and i in
d2 mu_i collapse into one product of p x (m s) matrices, so the Hessian
adds a few small dense products to an evaluation.

The s largest mu approximate the reciprocals of the s smallest pencil
eigenvalues; the surrogate objective adds a linear correction
g_corr^T delta that makes its gradient match the full gradient exactly
at x0. The value already matches there bit for bit: at delta = 0, L = I
and the reduction returns T itself, which goes through the same
eigensolver as the Lanczos run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ModelConsistencyError, SurrogateOutOfRangeError
from .lanczos import descending_eigh
from .objective import (
    frequencies_from_eigenvalues,
    full_gradient,
    require_separated,
    residual_jacobian,
    residuals,
    weighted_mismatch,
)

Z_FLOOR = 1e-8


@dataclass
class ReducedModel:
    """First-order surrogate of the updating objective around x0.

    s_hats and g_hats are the stacked increments S_j and G_j, each an
    array of shape (p, m, m).
    """

    x0: np.ndarray
    tridiagonal: np.ndarray
    s_hats: np.ndarray
    g_hats: np.ndarray
    g_corr: np.ndarray
    measured: np.ndarray
    weights: np.ndarray
    s: int
    gradient: np.ndarray = None  # full objective gradient at x0
    value_gap: float = 0.0  # |model - objective| at x0, zero by construction
    grad_gap: float = np.nan  # ||model gradient - full gradient|| at x0

    @property
    def m(self):
        return self.tridiagonal.shape[0]

    @property
    def n_parameters(self):
        return self.s_hats.shape[0]


def _sym(a):
    return (a + a.T) * 0.5


def build_reduced_model(problem, evaluation):
    """Assemble the surrogate at a point from its converged full evaluation.

    Cost: sparse products with the nonempty parameter increments on
    their own rows; no factorization, no back-substitution (Y = K^{-1} M U
    is the Lanczos run's own solves) and no assembly. The full gradient
    at the point, needed for the correction term, is kept as
    ``model.gradient``, and the gaps between model and objective there
    as ``model.value_gap`` (0 by the check below) and ``model.grad_gap``.

    Raises ModelConsistencyError if the surrogate value at the point
    differs from the evaluation's value in any bit.
    """
    pencil = problem.pencil
    x0 = evaluation.x
    lanczos_result = evaluation.lanczos
    basis = lanczos_result.basis
    y = lanczos_result.solves

    p, m = pencil.n_parameters, lanczos_result.m
    s_hats, g_hats = np.zeros((p, m, m)), np.zeros((p, m, m))
    for j in range(p):
        dk, dm = pencil.derivative(j)
        if dm.pattern.nnz:  # dM_j is symmetric: one product Q U_R serves S_j and G_j
            rows, q = dm.local()
            u_rows = basis[rows]
            qu = q @ u_rows
            s_hats[j] = _sym(u_rows.T @ qu)
            b = qu.T @ y[rows]
            g_hats[j] = b + b.T
        if dk.pattern.nnz:
            rows, q = dk.local()
            y_rows = y[rows]
            g_hats[j] -= _sym(y_rows.T @ (q @ y_rows))

    phi0 = evaluation.value
    model = ReducedModel(
        x0=x0.copy(),
        tridiagonal=lanczos_result.tridiagonal.copy(),
        s_hats=s_hats,
        g_hats=g_hats,
        g_corr=np.zeros(p),
        measured=problem.measured.copy(),
        weights=problem.weights.copy(),
        s=problem.s,
    )

    # at x0 the term g_corr^T delta is zero, so one evaluation with
    # g_corr = 0 gives both the value check and the correction
    value0, _, grad0 = evaluate_reduced_with_gradient(model, x0)
    if value0 != phi0:
        raise ModelConsistencyError(
            "surrogate value %r differs from the full value %r at its own "
            "expansion point" % (value0, phi0)
        )
    model.gradient = full_gradient(problem, evaluation)
    model.g_corr = model.gradient - grad0
    model.grad_gap = float(np.linalg.norm(grad0 + model.g_corr - model.gradient))
    return model


def _eigensystem(model, x):
    """(delta, mu, l, v) at x: all eigenvalues mu of (C, Z), descending,
    the Cholesky factor l of Z and the eigenvectors v of L^{-1} C L^{-T}.

    Raises SurrogateOutOfRangeError when x is too far from the expansion
    point for the linearization to make sense: the metric Z has an
    eigenvalue at or below Z_FLOOR, or one of the s leading values, which
    approximate reciprocals of positive pencil eigenvalues, is nonpositive.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = x - model.x0
    if delta.shape != (model.n_parameters,):
        raise ValueError("parameter vector has wrong length")
    p, m = model.n_parameters, model.m
    eye = np.eye(m)
    z = eye + (delta @ model.s_hats.reshape(p, m * m)).reshape(m, m)
    c = model.tridiagonal + (delta @ model.g_hats.reshape(p, m * m)).reshape(m, m)
    # lambda_min(Z) > Z_FLOOR exactly when Z - Z_FLOOR I has a Cholesky factor
    if lapack.dpotrf(z - Z_FLOOR * eye, lower=1, clean=0)[1] != 0:
        raise SurrogateOutOfRangeError(
            "metric Z lost definiteness (floor %g) at distance %g: point too "
            "far from the expansion point"
            % (Z_FLOOR, float(np.max(np.abs(delta))))
        )
    l, _ = lapack.dpotrf(z, lower=1, clean=0)
    a, _ = lapack.dsygst(c, l, itype=1, lower=1)
    mu, v = descending_eigh(a)
    if mu[model.s - 1] <= 0.0:
        raise SurrogateOutOfRangeError(
            "reduced operator lost positive definiteness (Ritz value %g)"
            % float(mu[model.s - 1])
        )
    return delta, mu, l, v


def _value(model, delta, mu):
    f_hat = frequencies_from_eigenvalues(1.0 / mu[: model.s])  # ascending lambda
    value = weighted_mismatch(f_hat, model.measured, model.weights) + float(
        model.g_corr @ delta
    )
    return value, f_hat


def evaluate_reduced(model, x):
    """Surrogate objective value and frequencies at x.

    Raises SurrogateOutOfRangeError when x is outside the model's trust
    neighborhood.
    """
    delta, mu, _, _ = _eigensystem(model, x)
    return _value(model, delta, mu)


def reduced_gradient(model, x):
    """Gradient of the surrogate objective at x."""
    return evaluate_reduced_with_gradient(model, x)[2]


def evaluate_reduced_with_gradient(model, x, hessian=False):
    """Surrogate value, frequencies, and gradient in one pass.

    With ``hessian=True`` the exact p x p Hessian of the surrogate
    objective is returned as a fourth element (see the module
    docstring); value and gradient are the same bits either way.

    Raises ClusteredEigenvaluesError when two of the s + 1 leading
    reduced eigenvalues nearly coincide: the sensitivity formulas need
    simple eigenvalues.
    """
    delta, mu, l, v = _eigensystem(model, x)
    s, p, m = model.s, model.n_parameters, model.m
    require_separated(mu[: s + 1], "leading reduced eigenvalues")
    value, f_hat = _value(model, delta, mu)

    # Z-orthonormal eigenvectors: d mu_i / d delta_j = u_i^T (G_j - mu_i S_j) u_i
    # all m of them, with or without the Hessian, so that the gradient
    # is the same bits either way (the solve's blocking depends on the
    # number of right-hand sides)
    lead = mu[:s]
    u_all, _ = lapack.dtrtrs(l, v, lower=1, trans=1)
    u = u_all[:, :s]
    gu = (model.g_hats.reshape(p * m, m) @ u).reshape(p, m, s)
    su = (model.s_hats.reshape(p * m, m) @ u).reshape(p, m, s)
    coupled = gu - su * lead  # (G_j - mu_i S_j) u_i
    dmu = np.einsum("ai,jai->ij", u, coupled)

    # r_i' = d r_i / d mu_i through lambda_i = 1 / mu_i, one column
    dr, curv = residual_jacobian(1.0 / lead, -1.0 / lead[:, None] ** 2, model.weights)
    jac = dr * dmu
    r = residuals(f_hat, model.measured, model.weights)
    grad = 2.0 * r @ jac + model.g_corr
    if not hessian:
        return value, f_hat, grad

    # couplings c[j, k, i] = u_k^T (G_j - mu_i S_j) u_i over all m u_k,
    # weighted by 2 a_i / (mu_i - mu_k) off the diagonal k = i, a = 2 r r'
    a = 2.0 * r * dr[:, 0]
    c = np.matmul(u_all.T, coupled).reshape(p, m * s)
    gaps = lead[None, :] - mu[:, None]
    np.fill_diagonal(gaps, np.inf)  # k = i
    wc = c * (2.0 * a / gaps).ravel()
    hess = wc @ c.T
    sdiag = np.einsum("ai,jai->ij", u, su)  # u_i^T S_j u_i
    cross = (a[:, None] * dmu).T @ sdiag
    hess -= cross + cross.T
    ddr = curv / lead**4 - 2.0 * dr[:, 0] / lead  # r'' = curv lambda'^2 + r' lambda'' / lambda'
    hess += 2.0 * jac.T @ jac + ((2.0 * r * ddr)[:, None] * dmu).T @ dmu
    return value, f_hat, grad, _sym(hess)
