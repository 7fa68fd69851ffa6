"""Shift-invert Lanczos for the smallest eigenpairs of an SPD pencil.

Finds the s smallest eigenvalues of K v = lambda M v by running the
Lanczos iteration on the operator K^{-1} M, which is self-adjoint in the
M-inner product. One sparse Cholesky factorization of K is performed;
each iteration costs one triangular back-substitution pair, one
multiplication by M, and full M-reorthogonalization against the basis.
The smallest pencil eigenvalues are the reciprocals of the largest Ritz
values of the projected tridiagonal matrix.

Each step's raw shift-invert solve K^{-1} M u_k is recorded before it is
orthogonalized and returned as ``LanczosResult.solves``: the reduced
models need exactly Y = K^{-1} M U, so they take it from here instead of
back-substituting again. The basis and its M-products are kept in
column-major workspaces, so writing a column and the reorthogonalization
products read contiguous memory.

Termination: a Ritz pair (mu_i, y_i) of the basis-size-k tridiagonal
T_k has residual norm beta_k * |e_k^T s_i| in the M-norm; the iteration
stops when beta_k |e_k^T s_i| / mu_i <= tol for all s leading pairs,
which bounds the relative eigenvalue error. On an exact invariant
subspace (breakdown) the iteration restarts with a fresh vector from
the same seeded stream, so multiple eigenvalues are still found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import MaxIterationsError, SubspaceExhaustedError
from .sparse import cholesky_factorize

_BREAKDOWN_REL = 1e-12


@dataclass
class LanczosResult:
    """Converged approximation of the s smallest pencil eigenpairs.

    eigenvalues are ascending; vectors (n, s) are M-normalized Ritz
    vectors; basis (n, m) is the M-orthonormal Lanczos basis;
    tridiagonal is the dense m-by-m projection of K^{-1}M onto it;
    solves (n, m) holds the shift-invert solves K^{-1} M u_k, one per
    basis column, as the iteration computed them;
    bounds are the termination residual bounds (relative, per pair).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    basis: np.ndarray
    tridiagonal: np.ndarray
    solves: np.ndarray
    bounds: np.ndarray

    @property
    def m(self):
        return self.tridiagonal.shape[0]


def _tridiagonal(alphas, betas):
    t = np.diag(np.asarray(alphas))
    if len(alphas) > 1:
        off = np.asarray(betas[: len(alphas) - 1])
        t += np.diag(off, 1) + np.diag(off, -1)
    return t


def descending_eigh(a):
    """Eigenvalues of the symmetric matrix a, descending, and eigenvectors.

    Reads only the lower triangle. The reduced models solve with the
    same routine, so a surrogate reproduces the Ritz values of T bit for
    bit at its expansion point. It calls scipy's LAPACK, like the
    Cholesky reduction and triangular solve around it in the surrogate:
    numpy and scipy may each bundle their own threaded BLAS, and
    alternating small calls between the two pools on few cores cost
    milliseconds per call.
    """
    mu, vec, info = lapack.dsyevd(a, compute_v=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("symmetric eigensolver failed (info %d)" % info)
    return mu[::-1], vec[:, ::-1]


def _leading_ritz(t, s, beta_last):
    """Ritz data of T: values mu (descending, first s), bounds, vectors."""
    mu, vec = descending_eigh(t)
    mu_lead = mu[:s]
    vec_lead = vec[:, :s]
    bounds = np.abs(beta_last * vec_lead[-1, :])
    return mu_lead, vec_lead, bounds


def lanczos_smallest(k_matrix, m_matrix, s, tol=1e-5, seed=0, max_basis=None):
    """Smallest s eigenpairs of the SPD pencil (K, M).

    Parameters
    ----------
    k_matrix, m_matrix : SparseSymMatrix
        Stiffness and mass; both must be positive definite.
    s : int
        Number of eigenpairs, 1 <= s <= n.
    tol : float
        Relative eigenvalue error bound at termination.
    seed : int
        Seed of the start vector; fixed seed gives a reproducible basis.
    max_basis : int, optional
        Basis-size cap, at least s; default max(4 s + 20, 100), never
        above n.

    Raises
    ------
    SubspaceExhaustedError
        The Krylov space spans everything reachable but holds fewer
        than s pairs.
    MaxIterationsError
        Cap reached before the bound was met; carries the best current
        estimates in ``result``.
    """
    n = k_matrix.n
    if m_matrix.n != n:
        raise ValueError("K and M dimensions disagree")
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n, got s=%d, n=%d" % (s, n))
    if max_basis is not None and max_basis < s:
        raise ValueError("need max_basis >= s, got max_basis=%d, s=%d" % (max_basis, s))
    factor = cholesky_factorize(k_matrix)
    cap = min(n, max(4 * s + 20, 100) if max_basis is None else int(max_basis))
    rng = np.random.default_rng(seed)

    # column-major, so each column and each leading block is contiguous
    basis = np.empty((n, cap), order="F")  # column k is written before any read
    mbasis = np.empty((n, cap), order="F")  # columns M u_k, for reorthogonalization
    solves = []  # K^{-1} M u_k, kept for the reduced model
    alphas, betas = [], []

    v = rng.standard_normal(n)
    mv = m_matrix.matvec(v)
    norm = np.sqrt(v @ mv)
    scale = 0.0  # running magnitude of the projected operator

    k = 0
    converged = False
    exhausted = False
    while k < cap:
        basis[:, k] = v / norm
        mbasis[:, k] = mv / norm
        w = factor.solve(mbasis[:, k])
        solves.append(w.copy())
        alpha = float(mbasis[:, k] @ w)
        alphas.append(alpha)
        scale = max(scale, abs(alpha))
        w -= alpha * basis[:, k]
        if k > 0:
            w -= betas[-1] * basis[:, k - 1]
        for _ in range(2):  # full reorthogonalization, two passes
            w -= basis[:, : k + 1] @ (mbasis[:, : k + 1].T @ w)
        mw = m_matrix.matvec(w)
        beta = float(np.sqrt(max(w @ mw, 0.0)))
        k += 1

        broke = beta <= _BREAKDOWN_REL * max(scale, 1e-300)
        if broke:
            beta = 0.0
        betas.append(beta)

        if k >= s:
            t = _tridiagonal(alphas, betas)
            mu, vec, bounds = _leading_ritz(t, s, beta)
            if np.all(mu > 0.0) and np.all(bounds <= tol * mu):
                converged = True
                break

        if broke:
            # invariant subspace: continue with a fresh direction
            v = rng.standard_normal(n)
            for _ in range(2):
                v -= basis[:, :k] @ (mbasis[:, :k].T @ v)
            mv = m_matrix.matvec(v)
            norm2 = float(v @ mv)
            if norm2 <= n * 1e-28:
                exhausted = True
                break
            norm = np.sqrt(norm2)
        else:
            v, mv, norm = w, mw, beta

    # when k >= s, the last iteration has computed T and its Ritz data
    if not converged:
        if exhausted or k < s:
            raise SubspaceExhaustedError(
                "Krylov space exhausted with %d of %d pairs available" % (k, s)
            )
        result = _package(t, mu, vec, bounds, basis[:, :k], solves)
        raise MaxIterationsError(
            "basis cap %d reached with residual bounds down to %g (tol %g)"
            % (cap, float(np.max(bounds / mu)), tol),
            result=result,
        )
    return _package(t, mu, vec, bounds, basis[:, :k], solves)


def _package(t, mu, vec, bounds, basis, solves):
    # a copy of the used columns, so the result does not keep the whole
    # (n, cap) workspace alive
    basis = basis.copy(order="F")
    lam = 1.0 / mu  # descending mu -> ascending lambda
    return LanczosResult(
        eigenvalues=lam,
        vectors=basis @ vec,
        basis=basis,
        tridiagonal=t,
        solves=np.stack(solves, axis=1),
        bounds=bounds / mu,
    )
