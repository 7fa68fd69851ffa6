"""Shift-invert Lanczos against dense oracles and its error contract."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from femupdate import (
    MaxIterationsError,
    SparseSymMatrix,
    cholesky_factorize,
    lanczos_smallest,
)
from femupdate.lanczos import descending_eigh
import scipy.linalg as sla

from conftest import random_spd_pencil


def identity(n):
    return SparseSymMatrix.from_triplets(n, range(n), range(n), np.ones(n))


def diagonal(values):
    n = len(values)
    return SparseSymMatrix.from_triplets(n, range(n), range(n), values)


def test_diagonal_pencil_known_eigenvalues():
    k = diagonal([1.0, 2.0, 3.0])
    m = identity(3)
    result = lanczos_smallest(k, m, s=2, tol=1e-10)
    assert np.allclose(result.eigenvalues, [1.0, 2.0], atol=1e-9)
    assert result.eigenvalues[0] <= result.eigenvalues[1]


def test_identity_pencil_repeated_eigenvalue():
    # K = M: every eigenvalue is 1; the Krylov space collapses after one
    # vector and the iteration must restart to find the second pair.
    k = identity(6)
    result = lanczos_smallest(k, k, s=2, tol=1e-8)
    assert np.allclose(result.eigenvalues, [1.0, 1.0], atol=1e-10)


def test_matches_dense_oracle_random_pencil():
    rng = np.random.default_rng(31)
    k, m = random_spd_pencil(120, rng)
    result = lanczos_smallest(k, m, s=5, tol=1e-8, seed=3)
    oracle = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True,
                      subset_by_index=[0, 4])
    assert np.all(np.abs(result.eigenvalues - oracle) <= 1e-6 * np.abs(oracle))


def test_vectors_are_m_orthonormal_with_small_residuals():
    rng = np.random.default_rng(32)
    k, m = random_spd_pencil(90, rng)
    tol = 1e-7
    result = lanczos_smallest(k, m, s=4, tol=tol, seed=1)
    v = result.vectors
    gram = v.T @ m.matvec(v)
    assert np.abs(gram - np.eye(4)).max() <= 1e-9
    for i in range(4):
        r = k.matvec(v[:, i]) - result.eigenvalues[i] * m.matvec(v[:, i])
        # the stopping rule bounds the shift-inverted residual by tol * mu
        assert np.linalg.norm(r) <= 10 * tol * result.eigenvalues[i] * np.linalg.norm(
            m.matvec(v[:, i])
        ) + 1e-9


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(33)
    k, m = random_spd_pencil(70, rng)
    result = lanczos_smallest(k, m, s=6, tol=1e-8)
    assert np.all(np.diff(result.eigenvalues) >= 0.0)


def test_seed_reproducibility():
    rng = np.random.default_rng(34)
    k, m = random_spd_pencil(60, rng)
    a = lanczos_smallest(k, m, s=3, tol=1e-8, seed=7)
    b = lanczos_smallest(k, m, s=3, tol=1e-8, seed=7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)
    c = lanczos_smallest(k, m, s=3, tol=1e-8, seed=8)
    assert np.allclose(c.eigenvalues, a.eigenvalues, rtol=1e-7)


def test_basis_cap_raises_with_partial_result():
    rng = np.random.default_rng(36)
    k, m = random_spd_pencil(200, rng)
    with pytest.raises(MaxIterationsError) as err:
        lanczos_smallest(k, m, s=5, tol=1e-12, max_basis=7)
    partial = err.value.result
    assert partial is not None
    assert partial.basis.shape[1] == 7


def test_basis_cap_below_block_count_is_rejected():
    # a cap below s can never hold s pairs; 0 is such a cap, not the default
    rng = np.random.default_rng(37)
    k, m = random_spd_pencil(50, rng)
    for cap in (3, 0):
        with pytest.raises(ValueError, match="max_basis"):
            lanczos_smallest(k, m, s=5, max_basis=cap)
    assert lanczos_smallest(k, m, s=5, max_basis=50).m <= 50


def test_validates_block_count():
    k = identity(4)
    with pytest.raises(ValueError):
        lanczos_smallest(k, k, s=5)
    with pytest.raises(ValueError):
        lanczos_smallest(k, k, s=0)


def test_tridiagonal_projection_consistency():
    """T stores the projected operator: T = Uᵀ M K⁻¹ M U."""
    rng = np.random.default_rng(37)
    k, m = random_spd_pencil(40, rng)
    result = lanczos_smallest(k, m, s=3, tol=1e-9)
    u = result.basis
    mu_ = m.matvec(u)
    projected = mu_.T @ cholesky_factorize(k).solve(mu_)
    assert np.abs(projected - result.tridiagonal).max() <= 1e-8 * max(
        1.0, np.abs(result.tridiagonal).max()
    )


def assert_solves_are_fresh_back_substitutions(result, k, m):
    """The recorded solves equal K⁻¹ M U solved again from the basis."""
    fresh = cholesky_factorize(k).solve(m.matvec(result.basis))
    assert result.solves.shape == result.basis.shape
    assert np.abs(result.solves - fresh).max() <= 1e-12 * np.abs(fresh).max()


def test_recorded_solves_match_fresh_back_substitution():
    rng = np.random.default_rng(38)
    k, m = random_spd_pencil(80, rng)
    result = lanczos_smallest(k, m, s=4, tol=1e-9, seed=2)
    assert result.basis.flags.f_contiguous
    assert_solves_are_fresh_back_substitutions(result, k, m)


def test_basis_does_not_keep_the_workspace_alive():
    rng = np.random.default_rng(39)
    k, m = random_spd_pencil(80, rng)
    result = lanczos_smallest(k, m, s=2, tol=1e-9)
    assert result.m < 80  # the workspace has more columns than were used
    assert result.basis.base is None and result.basis.flags.f_contiguous
    with pytest.raises(MaxIterationsError) as info:
        lanczos_smallest(k, m, s=5, tol=1e-12, max_basis=7)
    assert info.value.result.basis.base is None


def test_recorded_solves_survive_breakdown_restarts():
    # two distinct eigenvalues, each three times: the Krylov space of one
    # start vector breaks down after two steps, short of s = 4 pairs
    k = diagonal([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    m = identity(6)
    result = lanczos_smallest(k, m, s=4, tol=1e-10)
    assert np.allclose(result.eigenvalues, [1.0, 1.0, 2.0, 2.0], atol=1e-9)
    assert np.any(np.diag(result.tridiagonal, 1) == 0.0)  # a restart happened
    assert_solves_are_fresh_back_substitutions(result, k, m)


def test_partial_result_carries_recorded_solves():
    rng = np.random.default_rng(36)
    k, m = random_spd_pencil(200, rng)
    with pytest.raises(MaxIterationsError) as err:
        lanczos_smallest(k, m, s=5, tol=1e-12, max_basis=7)
    assert_solves_are_fresh_back_substitutions(err.value.result, k, m)


@given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), repeat=st.booleans())
def test_descending_eigh_matches_sorted_eigvalsh(m, seed, repeat):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    a = a + a.T
    if repeat and m > 2:  # an exactly repeated eigenvalue
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        w = rng.standard_normal(m)
        w[1] = w[0]
        a = (q * w) @ q.T
    mu, vec = descending_eigh(a)
    assert np.allclose(mu, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-12 * m)
    assert np.all(np.diff(mu) <= 0.0)
    assert np.allclose(a @ vec, vec * mu, atol=1e-10 * m)
    assert np.allclose(vec.T @ vec, np.eye(m), atol=1e-12 * m)
