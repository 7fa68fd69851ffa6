"""Shift-invert Lanczos for the smallest eigenpairs of an SPD pencil.

Finds the s smallest eigenvalues of K v = lambda M v by running the
Lanczos iteration on the operator K^{-1} M, which is self-adjoint in the
M-inner product. One sparse Cholesky factorization of K is performed;
each iteration costs one triangular back-substitution pair, one
multiplication by M, and full M-orthogonalization of the solve against
the basis by classical Gram-Schmidt run twice. The first pass also
removes the three-term recurrence's alpha u_k and beta u_{k-1}, and
alpha is the sum of both passes' coefficients on u_k. The smallest
pencil eigenvalues are the reciprocals of the largest Ritz values of
the projected tridiagonal matrix.

Each step's raw shift-invert solve K^{-1} M u_k is recorded before it is
orthogonalized and returned as ``LanczosResult.solves``: the reduced
models need exactly Y = K^{-1} M U, so they take it from here instead of
back-substituting again. The basis U, M U and the solves live in one
column-major array that the run borrows from K's pattern
(``SymmetricPattern.workspace``) and gives back when it ends, so runs
on one pattern, scaled copies of K included, reuse its pages; a nested
or concurrent run gets an array of its own. Column k of U, M U and the
solves sit side by side, in columns 3k, 3k + 1 and 3k + 2, so a run of
m steps writes only the first 3m columns: numpy advises transparent
huge pages for arrays of 4 MiB or more, and three separate column
blocks would each fault in huge pages of their own. The result holds
copies of the columns it uses, never views of that array, made after
the factorization of K is released.

Termination: a Ritz pair (mu_i, y_i) of the basis-size-k tridiagonal
T_k has residual norm beta_k * |e_k^T s_i| in the M-norm; the iteration
stops when beta_k |e_k^T s_i| / mu_i <= tol for all s leading pairs,
which bounds the relative eigenvalue error. On an exact invariant
subspace (breakdown) the iteration restarts with a fresh vector from
the same seeded stream, so multiple eigenvalues are still found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import MaxIterationsError, NumericalError, SubspaceExhaustedError
from .sparse import cholesky_factorize

_BREAKDOWN_REL = 1e-12


@dataclass
class LanczosResult:
    """Converged approximation of the s smallest pencil eigenpairs.

    eigenvalues are ascending; vectors (n, s) are M-normalized Ritz
    vectors; basis (n, m) is the M-orthonormal Lanczos basis;
    tridiagonal is the dense m-by-m projection of K^{-1}M onto it;
    solves (n, m) holds the shift-invert solves K^{-1} M u_k, one per
    basis column, as the iteration computed them. The run a pencil
    holds for its start (``objective._held``) keeps only eigenvalues
    and tridiagonal; there vectors, basis and solves are None.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    basis: np.ndarray
    tridiagonal: np.ndarray
    solves: np.ndarray

    @property
    def m(self):
        return self.tridiagonal.shape[0]


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
        raise NumericalError("symmetric eigensolver failed (info %d)" % info)
    return mu[::-1], vec[:, ::-1]


def lanczos_smallest(k_matrix, m_matrix, s, tol=1e-5, seed=0):
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

    Raises
    ------
    SubspaceExhaustedError
        The Krylov space spans everything reachable but holds fewer
        than s pairs.
    MaxIterationsError
        The basis cap min(n, max(4 s + 20, 100)) reached before the
        bound was met.
    NumericalError
        alpha or beta overflowed: K or M is scaled far outside the
        floating-point range.
    """
    n = k_matrix.n
    if m_matrix.n != n:
        raise ValueError("K and M dimensions disagree")
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n, got s=%d, n=%d" % (s, n))
    factor = cholesky_factorize(k_matrix)
    cap = min(n, max(4 * s + 20, 100))
    rng = np.random.default_rng(seed)
    t = np.zeros((cap + 1, cap + 1))  # T_k = t[:k, :k]; beta_k in row/column k

    v = rng.standard_normal(n)
    mv = m_matrix.matvec(v)
    norm = np.sqrt(v @ mv)
    scale = 0.0  # running magnitude of the projected operator

    # basis U, M U and K^{-1} M U interleaved in one column-major array
    # lent by K's pattern; column k is written before any read. An
    # overflow reaches alpha or beta, which are checked instead of warned of
    with k_matrix.pattern.workspace(3 * cap) as work, np.errstate(over="ignore", invalid="ignore"):
        basis, mbasis, solves = (work[:, j : 3 * cap : 3] for j in range(3))
        k = 0
        while k < cap:
            np.divide(v, norm, out=basis[:, k])
            np.divide(mv, norm, out=mbasis[:, k])
            w = factor.solve(mbasis[:, k])
            solves[:, k] = w
            # classical Gram-Schmidt, twice; the first pass also removes
            # the three-term recurrence's alpha u_k and beta u_{k-1}
            h = mbasis[:, : k + 1].T @ w
            w -= basis[:, : k + 1] @ h
            h2 = mbasis[:, : k + 1].T @ w
            w -= basis[:, : k + 1] @ h2
            alpha = t[k, k] = h[k] + h2[k]
            scale = max(scale, abs(alpha))
            mw = m_matrix.matvec(w)
            beta = float(np.sqrt(max(w @ mw, 0.0)))  # NaN stays NaN
            if not math.isfinite(alpha + beta):
                raise NumericalError(
                    "Lanczos step %d left the floating-point range; K or M is scaled "
                    "far outside it" % k
                )
            k += 1

            broke = beta <= _BREAKDOWN_REL * max(scale, 1e-300)
            if broke:
                beta = 0.0
            t[k, k - 1] = t[k - 1, k] = beta

            if k >= s:
                mu, vec = descending_eigh(t[:k, :k])
                mu, vec = mu[:s], vec[:, :s]  # the leading Ritz pairs
                bounds = np.abs(beta * vec[-1])
                if np.all(mu > 0.0) and np.all(bounds <= tol * mu):
                    # copies of the used columns: nothing returned aliases
                    # the workspace, which the next run overwrites; the
                    # factor is freed first, so the two never coexist
                    factor = None
                    kept = basis[:, :k].copy(order="F")
                    return LanczosResult(
                        eigenvalues=1.0 / mu,  # descending mu -> ascending lambda
                        vectors=kept @ vec,
                        basis=kept,
                        tridiagonal=t[:k, :k].copy(),
                        solves=solves[:, :k].copy(),
                    )

            if broke:
                # invariant subspace: continue with a fresh direction
                v = rng.standard_normal(n)
                drawn = float(v @ m_matrix.matvec(v))
                for _ in range(2):
                    v -= basis[:, :k] @ (mbasis[:, :k].T @ v)
                mv = m_matrix.matvec(v)
                norm2 = float(v @ mv)
                # relative, as the breakdown test, so M's units do not matter
                if norm2 <= _BREAKDOWN_REL**2 * drawn:
                    raise SubspaceExhaustedError(
                        "Krylov space exhausted with %d of %d pairs available" % (k, s)
                    )
                norm = np.sqrt(norm2)
            else:
                v, mv, norm = w, mw, beta

    # k = cap >= s here, so the last iteration computed the Ritz data
    raise MaxIterationsError(
        "basis cap %d reached with residual bounds down to %g (tol %g)"
        % (cap, float(np.max(bounds / mu)), tol)
    )
