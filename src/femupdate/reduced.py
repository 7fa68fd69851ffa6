"""Local reduced eigenvalue models recycled from a Lanczos basis.

A converged Lanczos run at an expansion point x0 leaves an
M(x0)-orthonormal basis U of dimension m, the stack of its shift-invert
solves Y = K(x0)^{-1} M(x0) U (``LanczosResult.solves``) and the
projected tridiagonal T = U^T M K^{-1} M U. For parameters x = x0 +
delta the surrogate is the small symmetric-definite pencil

    C(x) u = mu Z(x) u,   C(x) = A(x) B(x)^{-1} A(x)^T,

whose three factors are projections of the affine pencil and so are
themselves exactly affine in x:

    Z(x) = U^T M(x) U = I + sum_j delta_j S_j,   S_j = U^T dM_j U,
    A(x) = U^T M(x) Y = T + sum_j delta_j A_j,   A_j = U^T dM_j Y,
    B(x) = Y^T K(x) Y = T + sum_j delta_j B_j,   B_j = Y^T dK_j Y.

C(x) is U^T M(x) K(x)^{-1} M(x) U with K(x)^{-1} replaced by its
Galerkin approximation Y B(x)^{-1} Y^T on span(Y), which is exact at
x0; the linear model T + sum_j delta_j (A_j + A_j^T - B_j) is its
first-order expansion. A model costs no back-substitution, only sparse
products with the parameter increments, each on its own rows
(``SparseSymMatrix.local``): with R the rows dM_j touches and Q its
block there, S_j = U_R^T Q U_R and A_j = (Q U_R)^T Y_R share the
product Q U_R. An empty dK_j or dM_j costs nothing. At a pencil's start
S_j, A_j and B_j are computed once (``objective._held``), g_corr every
time.

S_j, A_j and B_j are stored stacked as (p, m, m) arrays. One evaluation
factors B = L_B L_B^T, forms

    C = T + dA + (T + dA) B^{-1} (dA^T - dB),   dA = A - T, dB = B - T,

which equals A B^{-1} A^T and is T itself at delta = 0, factors
Z = L L^T, reduces the pencil to the standard symmetric problem
L^{-1} C L^{-T} v = mu v (LAPACK sygst), and solves that with
``lanczos.descending_eigh``, the eigensolver Lanczos uses for T. The
eigenvectors u = L^{-T} v are Z-orthonormal, so with w_i = B^{-1} A^T u_i
the sensitivities are

    d mu_i / d delta_j = 2 u_i^T A_j w_i - w_i^T B_j w_i - mu_i u_i^T S_j u_i

for all i, j at once.

Each residual r_i, the weighted error of frequency i, moves with
mu_i = 1 / lambda_i alone: ``objective.residual_jacobian``
differentiates it in lambda_i, and by the chain rule through
lambda_i = 1 / mu_i, J = diag(r') d mu / d delta. The gradient is 2 J^T r + g_corr, and the Hessian is the
Gauss-Newton one of the least-squares fit, 2 J^T J: positive
semidefinite at every x, and it needs only the s leading eigenvectors.

The s largest mu approximate the reciprocals of the s smallest pencil
eigenvalues; the surrogate objective adds a linear correction
g_corr^T delta that makes its gradient match the full gradient exactly
at x0. The value already matches there bit for bit: at delta = 0,
C = T, L = I and the reduction returns T itself, which goes through the
same eigensolver as the Lanczos run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ModelConsistencyError, SurrogateOutOfRangeError
from .lanczos import descending_eigh
from .objective import (
    _held,
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
    """Surrogate of the updating objective around x0.

    s_hats, a_hats and b_hats are the stacked increments S_j, A_j and
    B_j, each an array of shape (p, m, m).
    """

    x0: np.ndarray
    tridiagonal: np.ndarray
    s_hats: np.ndarray
    a_hats: np.ndarray
    b_hats: np.ndarray
    g_corr: np.ndarray
    measured: np.ndarray
    weights: np.ndarray
    s: int
    gradient: np.ndarray = None  # full objective gradient at x0
    grad_gap: float = np.nan  # ||model gradient - full gradient|| at x0
    at_x0: tuple = None  # evaluate_reduced_with_gradient(model, x0), g_corr in

    @property
    def m(self):
        return self.tridiagonal.shape[0]

    @property
    def n_parameters(self):
        return self.s_hats.shape[0]


def _sym(a):
    return (a + a.T) * 0.5


def _projections(pencil, lanczos_result):
    """The stacks (S_j, A_j, B_j) of a Lanczos run; see the module docstring."""
    basis, y = lanczos_result.basis, lanczos_result.solves
    p, m = pencil.n_parameters, lanczos_result.m
    s_hats, a_hats, b_hats = np.zeros((p, m, m)), np.zeros((p, m, m)), np.zeros((p, m, m))
    for j in range(p):
        dk, dm = pencil.derivative(j)
        if dm.pattern.nnz:  # dM_j is symmetric: one product Q U_R serves S_j and A_j
            rows, q = dm.local()
            u_rows = basis[rows]
            qu = q @ u_rows
            s_hats[j] = _sym(u_rows.T @ qu)
            a_hats[j] = qu.T @ y[rows]
        if dk.pattern.nnz:
            rows, q = dk.local()
            y_rows = y[rows]
            b_hats[j] = _sym(y_rows.T @ (q @ y_rows))
    return s_hats, a_hats, b_hats


def build_reduced_model(problem, evaluation):
    """Assemble the surrogate at a point from its converged full evaluation.

    Cost: sparse products with the nonempty parameter increments on
    their own rows; no factorization, no back-substitution (Y = K^{-1} M U
    is the Lanczos run's own solves) and no assembly. The full gradient
    at the point, needed for the correction term, is kept as
    ``model.gradient``, and the gradient gap there as ``model.grad_gap``
    (the value gap is zero by the check below). The surrogate's own
    value, frequencies, gradient and Hessian at the point are kept as
    ``model.at_x0``, so an inner solve starting there does not evaluate
    it again.

    Raises ModelConsistencyError if the surrogate value or frequencies
    at the point differ from the evaluation's in any bit.
    """
    x0, lanczos_result = evaluation.x, evaluation.lanczos
    s_hats, a_hats, b_hats = _held(
        problem, x0, "hats", lambda: _projections(problem.pencil, lanczos_result)
    )

    phi0 = evaluation.value
    model = ReducedModel(
        x0=x0.copy(),
        tridiagonal=lanczos_result.tridiagonal.copy(),
        s_hats=s_hats,
        a_hats=a_hats,
        b_hats=b_hats,
        g_corr=np.zeros(problem.pencil.n_parameters),
        measured=problem.measured.copy(),
        weights=problem.weights.copy(),
        s=problem.s,
    )

    # at x0 the term g_corr^T delta is zero, so one evaluation with
    # g_corr = 0 gives both the value check and the correction
    value0, f0, grad0, hess0 = evaluate_reduced_with_gradient(model, x0)
    if value0 != phi0 or not np.array_equal(f0, evaluation.frequencies):
        raise ModelConsistencyError(
            "surrogate value %r or frequencies differ from the full ones (value %r) "
            "at its own expansion point" % (value0, phi0)
        )
    model.gradient = full_gradient(problem, evaluation)
    model.g_corr = model.gradient - grad0
    model.at_x0 = (value0, f0, grad0 + model.g_corr, hess0)
    model.grad_gap = float(np.linalg.norm(model.at_x0[2] - model.gradient))
    return model


def evaluate_reduced(model, x):
    """Surrogate objective value and frequencies at x, the first two of
    ``evaluate_reduced_with_gradient``; it raises what that raises, so a
    clustered leading pair raises ClusteredEigenvaluesError here too."""
    return evaluate_reduced_with_gradient(model, x)[:2]


def reduced_gradient(model, x):
    """Gradient of the surrogate objective at x."""
    return evaluate_reduced_with_gradient(model, x)[2]


def evaluate_reduced_with_gradient(model, x):
    """Surrogate value, frequencies, gradient and Gauss-Newton p x p
    Hessian 2 J^T J (see the module docstring) in one pass.

    Raises SurrogateOutOfRangeError when x is too far from the expansion
    point for the model to make sense: B = Y^T K(x) Y is not positive
    definite (K(x) is then indefinite on span(Y)), the metric Z has an
    eigenvalue at or below Z_FLOOR, or one of the s leading values, which
    approximate reciprocals of positive pencil eigenvalues, is nonpositive.
    Raises ClusteredEigenvaluesError when two of the s + 1 leading
    reduced eigenvalues nearly coincide: the sensitivity formulas need
    simple eigenvalues.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = x - model.x0
    if delta.shape != (model.n_parameters,):
        raise ValueError("parameter vector has wrong length")
    s, p, m = model.s, model.n_parameters, model.m
    eye, t = np.eye(m), model.tridiagonal
    z, da, db = ((delta @ hats.reshape(p, m * m)).reshape(m, m)
                 for hats in (model.s_hats, model.a_hats, model.b_hats))
    z += eye
    lb, info = lapack.dpotrf(t + db, lower=1, clean=0)
    if info != 0:
        raise SurrogateOutOfRangeError(
            "projected stiffness B lost definiteness at distance %g: point too far "
            "from the expansion point" % float(np.max(np.abs(delta)))
        )
    a = t + da
    c = a + a @ lapack.dpotrs(lb, da.T - db, lower=1)[0]  # A B^-1 A^T, exactly T at x0
    # lambda_min(Z) > Z_FLOOR exactly when Z - Z_FLOOR I has a Cholesky factor
    if lapack.dpotrf(z - Z_FLOOR * eye, lower=1, clean=0)[1] != 0:
        raise SurrogateOutOfRangeError(
            "metric Z lost definiteness (floor %g) at distance %g: point too "
            "far from the expansion point"
            % (Z_FLOOR, float(np.max(np.abs(delta))))
        )
    l, _ = lapack.dpotrf(z, lower=1, clean=0)
    c, _ = lapack.dsygst(c, l, itype=1, lower=1)
    mu, v = descending_eigh(c)
    if mu[s - 1] <= 0.0:
        raise SurrogateOutOfRangeError(
            "reduced operator lost positive definiteness (Ritz value %g)" % float(mu[s - 1])
        )
    require_separated(mu[: s + 1], "leading reduced eigenvalues")
    lead = mu[:s]
    f_hat = frequencies_from_eigenvalues(1.0 / lead)  # ascending lambda
    value = weighted_mismatch(f_hat, model.measured, model.weights) + float(
        model.g_corr @ delta
    )

    # Z-orthonormal eigenvectors u, w = B^-1 A^T u:
    # d mu_i / d delta_j = 2 u_i^T A_j w_i - w_i^T B_j w_i - mu_i u_i^T S_j u_i
    u, _ = lapack.dtrtrs(l, v[:, :s], lower=1, trans=1)
    w, _ = lapack.dpotrs(lb, a.T @ u, lower=1)
    aw = (model.a_hats.reshape(p * m, m) @ w).reshape(p, m, s)
    bw = (model.b_hats.reshape(p * m, m) @ w).reshape(p, m, s)
    su = (model.s_hats.reshape(p * m, m) @ u).reshape(p, m, s)
    dmu = np.einsum("ai,jai->ij", u, 2.0 * aw - su * lead) - np.einsum("ai,jai->ij", w, bw)

    # r_i' = d r_i / d mu_i through lambda_i = 1 / mu_i, one column
    jac = residual_jacobian(1.0 / lead, -1.0 / lead[:, None] ** 2, model.weights) * dmu
    r = residuals(f_hat, model.measured, model.weights)
    return value, f_hat, 2.0 * r @ jac + model.g_corr, _sym(2.0 * jac.T @ jac)
