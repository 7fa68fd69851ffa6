"""Sparse symmetric storage and the unpivoted Cholesky wrapper."""

import numpy as np
import pytest

from femupdate import (
    CholeskyFactor,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    cholesky_factorize,
    read_matrix_market,
    write_matrix_market,
)

from conftest import random_banded_spd


def test_from_triplets_accumulates_duplicates():
    # entries below the diagonal, with (2,0) given twice
    m = SparseSymMatrix.from_triplets(
        3, [0, 1, 2, 2, 2], [0, 1, 0, 0, 2], [2.0, 3.0, 0.5, 0.25, 4.0]
    )
    expected = np.array([[2.0, 0.0, 0.75], [0.0, 3.0, 0.0], [0.75, 0.0, 4.0]])
    assert np.array_equal(m.to_dense(), expected)
    assert m.n == 3 and m.shape == (3, 3)


def test_from_triplets_rejects_upper_entries():
    with pytest.raises(ValueError):
        SparseSymMatrix.from_triplets(2, [0, 0, 1], [0, 1, 1], [1.0, 5.0, 2.0])


def test_from_full_requires_symmetry():
    full = np.array([[1.0, 2.0], [2.0, 3.0]])
    m = SparseSymMatrix.from_full(full)
    assert np.array_equal(m.to_dense(), full)
    with pytest.raises(ValueError):
        SparseSymMatrix.from_full(np.array([[1.0, 2.0], [0.0, 3.0]]))


def test_matvec_matches_dense():
    rng = np.random.default_rng(5)
    m = random_banded_spd(40, rng)
    dense = m.to_dense()
    v = rng.standard_normal(40)
    assert np.allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-13)
    block = rng.standard_normal((40, 3))
    assert np.allclose(m.matvec(block), dense @ block, rtol=0, atol=1e-13)
    assert np.allclose(m @ v, dense @ v, rtol=0, atol=1e-13)


def test_to_scipy_round_trip():
    rng = np.random.default_rng(6)
    m = random_banded_spd(25, rng)
    assert np.allclose(m.to_scipy().toarray(), m.to_dense(), atol=0)


def test_scaled():
    rng = np.random.default_rng(8)
    m = random_banded_spd(10, rng)
    assert np.allclose(m.scaled(3.0).to_dense(), 3.0 * m.to_dense(), atol=0)


def test_cholesky_solve_matches_dense_oracle():
    rng = np.random.default_rng(9)
    k = random_banded_spd(60, rng)
    factor = cholesky_factorize(k)
    b = rng.standard_normal(60)
    x = factor.solve(b)
    expected = np.linalg.solve(k.to_dense(), b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cholesky_factor_reconstructs_permuted_matrix():
    rng = np.random.default_rng(10)
    k = random_banded_spd(30, rng)
    factor = CholeskyFactor(k)
    ell = factor.L.toarray()
    p = factor.perm
    dense = k.to_dense()
    recon = ell @ ell.T
    assert np.linalg.norm(recon - dense[np.ix_(p, p)]) <= 1e-12 * np.linalg.norm(dense)


def test_cholesky_rejects_indefinite_matrix():
    # one negative eigenvalue
    full = np.array([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    m = SparseSymMatrix.from_full(full)
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(m)
    assert err.value.pivot is not None


def test_cholesky_rejects_singular_matrix():
    full = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factorize(SparseSymMatrix.from_full(full))


def test_cholesky_solve_dimension_check():
    rng = np.random.default_rng(11)
    factor = cholesky_factorize(random_banded_spd(8, rng))
    with pytest.raises(DimensionMismatchError):
        factor.solve(np.ones(9))


def test_matrix_market_round_trip_symmetric(tmp_path):
    rng = np.random.default_rng(12)
    m = random_banded_spd(20, rng)
    path = tmp_path / "k.mtx"
    write_matrix_market(path, m)
    text = path.read_text()
    assert "symmetric" in text.splitlines()[0]
    back = read_matrix_market(path)
    assert np.allclose(back.to_dense(), m.to_dense(), atol=1e-15)


def test_matrix_market_round_trip_dense_array(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 4.0], [0.0, 1.0]])
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    back = read_matrix_market(path)
    assert np.allclose(back, a, atol=1e-15)


def _diagonal_slots(pattern):
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    return np.flatnonzero(pattern.indices == rows)


def test_factorizations_on_one_pattern_share_the_ordering():
    rng = np.random.default_rng(13)
    a = random_banded_spd(40, rng)
    data = a.data.copy()
    data[_diagonal_slots(a.pattern)] += rng.uniform(0.5, 2.0, 40)
    b = SparseSymMatrix.on_pattern(a.pattern, data)
    first, second = CholeskyFactor(a), CholeskyFactor(b)
    assert second.perm is first.perm
    assert not np.array_equal(first.perm, np.arange(40))
    for matrix, factor in ((a, first), (b, second)):
        dense = matrix.to_dense()
        ell = factor.L.toarray()
        p = factor.perm
        assert np.linalg.norm(ell @ ell.T - dense[np.ix_(p, p)]) <= 1e-12 * np.linalg.norm(dense)


def test_reused_ordering_reports_pivot_in_original_numbering():
    rng = np.random.default_rng(14)
    a = random_banded_spd(30, rng)
    perm = CholeskyFactor(a).perm  # computes the pattern's ordering
    k = next(i for i in range(30) if perm[i] != i)  # dof k is not pivot k
    data = a.data.copy()
    data[_diagonal_slots(a.pattern)[k]] = -100.0
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(SparseSymMatrix.on_pattern(a.pattern, data))
    assert err.value.pivot == k
