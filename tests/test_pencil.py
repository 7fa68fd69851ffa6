"""Feasible box and the affine matrix pencil."""

import numpy as np
import pytest

from femupdate import FeasibleBox, ParametricPencil, SparseSymMatrix

from conftest import random_banded_spd


def box23():
    return FeasibleBox([1.0, 10.0], [3.0, 20.0])


def test_box_validation():
    with pytest.raises(ValueError):
        FeasibleBox([1.0, 2.0], [3.0])
    with pytest.raises(ValueError):
        FeasibleBox([1.0, 5.0], [3.0, 5.0])  # needs strict lower < upper
    for lower, upper in (([np.nan, 1.0, 1.0], [2.0, 2.0, 2.0]), ([1.0, 1.0], [2.0, np.nan])):
        with pytest.raises(ValueError):
            FeasibleBox(lower, upper)
    assert np.isinf(FeasibleBox([1.0], [np.inf]).upper).all()  # an open upper end is legal


def test_box_contains():
    box = box23()
    assert box.contains([2.0, 15.0])
    assert not box.contains([0.5, 15.0])
    assert box.contains([0.999, 15.0], rtol=1e-2)


def test_box_midpoint_and_default_start():
    box = box23()
    assert np.array_equal(box.midpoint(), [2.0, 15.0])


def test_box_scaled_by():
    box = box23()
    scaled = box.scaled_by([2.0, 10.0])
    assert np.allclose(scaled.lower, [0.5, 1.0])
    assert np.allclose(scaled.upper, [1.5, 2.0])


def _toy_pencil(rng, n=12, ell=2):
    k0 = random_banded_spd(n, rng)
    m0 = random_banded_spd(n, rng, bandwidth=1)
    dk = [random_banded_spd(n, rng, bandwidth=1) for _ in range(ell)]
    dm = [SparseSymMatrix(a.pattern, 0.01 * a.data)
          for a in (random_banded_spd(n, rng, bandwidth=1) for _ in range(ell))]
    names = ["p%d" % j for j in range(ell)]
    return ParametricPencil(k0, m0, dk, dm, names)


def test_pencil_evaluate_matches_manual_combination():
    rng = np.random.default_rng(21)
    pencil = _toy_pencil(rng)
    x = np.array([0.7, 1.3])
    k, m = pencil.evaluate(x)
    k0, m0 = pencil.evaluate(np.zeros(2))
    increments = [pencil.derivative(j) for j in range(2)]
    k_expected = k0.to_dense() + sum(
        xj * dk.to_dense() for xj, (dk, _) in zip(x, increments)
    )
    m_expected = m0.to_dense() + sum(
        xj * dm.to_dense() for xj, (_, dm) in zip(x, increments)
    )
    assert np.allclose(k.to_dense(), k_expected, atol=1e-13)
    assert np.allclose(m.to_dense(), m_expected, atol=1e-13)


def test_pencil_derivative_returns_increments():
    rng = np.random.default_rng(22)
    pencil = _toy_pencil(rng)
    dk, dm = pencil.derivative(1)
    assert pencil.derivative(1)[0] is dk and pencil.derivative(1)[1] is dm
    k0, m0 = pencil.evaluate([0.0, 0.0])
    k1, m1 = pencil.evaluate([0.0, 1.0])
    assert np.allclose(k1.to_dense() - k0.to_dense(), dk.to_dense(), rtol=0, atol=1e-13)
    assert np.allclose(m1.to_dense() - m0.to_dense(), dm.to_dense(), rtol=0, atol=1e-13)


def test_pencil_shape_and_names():
    rng = np.random.default_rng(23)
    pencil = _toy_pencil(rng, n=9, ell=3)
    assert pencil.n == 9
    assert pencil.n_parameters == 3
    assert pencil.names == ["p0", "p1", "p2"]


def test_pencil_scaled_by_preserves_evaluation():
    rng = np.random.default_rng(24)
    pencil = _toy_pencil(rng)
    ref = np.array([2.0, 4.0])
    scaled = pencil.scaled_by(ref)
    x = np.array([0.9, 1.1])
    k1, m1 = scaled.evaluate(x)
    k2, m2 = pencil.evaluate(x * ref)
    assert np.allclose(k1.to_dense(), k2.to_dense(), atol=1e-12)
    assert np.allclose(m1.to_dense(), m2.to_dense(), atol=1e-12)


def test_pencil_scaled_by_requires_positive_reference():
    rng = np.random.default_rng(25)
    pencil = _toy_pencil(rng)
    with pytest.raises(ValueError):
        pencil.scaled_by([1.0, -2.0])


def test_pencil_dimension_validation():
    rng = np.random.default_rng(26)
    k0 = random_banded_spd(8, rng)
    m0 = random_banded_spd(9, rng)
    with pytest.raises(ValueError):
        ParametricPencil(k0, m0, [], [], [])


def test_pencil_evaluate_wrong_parameter_count():
    rng = np.random.default_rng(27)
    pencil = _toy_pencil(rng)
    with pytest.raises(ValueError):
        pencil.evaluate(np.ones(3))


def _block(n, lo, hi, rng):
    """Random symmetric matrix whose entries all lie in rows/cols lo..hi-1."""
    dense = np.zeros((n, n))
    block = rng.uniform(-1.0, 1.0, (hi - lo, hi - lo))
    dense[lo:hi, lo:hi] = block + block.T
    return SparseSymMatrix.from_full(dense)


def test_pencil_evaluate_matches_dense_reference_with_disjoint_increments():
    rng = np.random.default_rng(28)
    n = 16
    empty = SparseSymMatrix.from_full(np.zeros((n, n)))
    k0 = random_banded_spd(n, rng, bandwidth=1)
    m0 = random_banded_spd(n, rng, bandwidth=1)
    # increments on disjoint index blocks, plus the all-zero increments
    # assemble_parametric gives a young parameter's mass and vice versa
    dk = [_block(n, 0, 5, rng), empty, _block(n, 11, 16, rng)]
    dm = [empty, _block(n, 5, 11, rng), _block(n, 12, 14, rng)]
    pencil = ParametricPencil(k0, m0, dk, dm)
    assert pencil.derivative(1)[0].pattern.nnz == 0
    x = np.array([2.0, -0.5, 1.25])

    def reference(y):
        k = k0.to_dense() + sum(c * a.to_dense() for c, a in zip(y, dk))
        m = m0.to_dense() + sum(c * a.to_dense() for c, a in zip(y, dm))
        return k, m

    k, m = pencil.evaluate(x)
    k_ref, m_ref = reference(x)
    assert np.allclose(k.to_dense(), k_ref, rtol=0, atol=1e-14)
    assert np.allclose(m.to_dense(), m_ref, rtol=0, atol=1e-14)

    ref = np.array([3.0, 0.5, 2.0])
    scaled = pencil.scaled_by(ref)
    k, m = scaled.evaluate(x)
    k_ref, m_ref = reference(x * ref)
    assert np.allclose(k.to_dense(), k_ref, rtol=0, atol=1e-13)
    assert np.allclose(m.to_dense(), m_ref, rtol=0, atol=1e-13)
    for j in range(3):
        dk_s, dm_s = scaled.derivative(j)
        assert np.array_equal(dk_s.to_dense(), ref[j] * dk[j].to_dense())
        assert np.array_equal(dm_s.to_dense(), ref[j] * dm[j].to_dense())
        assert dk_s.pattern is pencil.derivative(j)[0].pattern


def test_pencil_matrices_share_one_pattern():
    rng = np.random.default_rng(29)
    pencil = _toy_pencil(rng)
    scaled = pencil.scaled_by(np.array([2.0, 0.5]))
    k1, m1 = pencil.evaluate(np.array([0.5, 1.5]))
    k2, m2 = scaled.evaluate(np.array([1.0, 2.0]))
    k0, m0 = pencil.evaluate(np.zeros(2))
    assert k1.pattern is k2.pattern is k0.pattern
    assert m1.pattern is m2.pattern is m0.pattern
