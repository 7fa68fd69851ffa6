"""Frequency mismatch objective, weights, and analytic gradients."""

import numpy as np
import pytest
import scipy.linalg as sla

from femupdate import (
    ClusteredEigenvaluesError,
    DimensionMismatchError,
    EvalCounter,
    ParametricPencil,
    FeasibleBox,
    SparseSymMatrix,
    UpdatingProblem,
    evaluate_full,
    frequencies_from_eigenvalues,
    full_gradient,
    weighted_mismatch,
)
from femupdate.objective import eigenvalue_derivatives, make_weights, residual_jacobian, residuals

from conftest import random_banded_spd, random_spd_pencil


def test_frequency_conversion_unit_case():
    # an eigenvalue of (2 pi)^2 is exactly 1 Hz
    assert frequencies_from_eigenvalues(np.array([(2.0 * np.pi) ** 2]))[0] == 1.0


def test_frequency_conversion_rejects_negative():
    with pytest.raises(ValueError):
        frequencies_from_eigenvalues(np.array([-1.0]))


def test_uniform_weights():
    w = make_weights("uniform", np.array([10.0, 20.0, 40.0]))
    assert np.allclose(w, np.full(3, 1.0 / np.sqrt(3.0)))
    assert np.isclose(np.linalg.norm(w), 1.0)


def test_relative_weights_proportional_to_reciprocal():
    f = np.array([10.0, 20.0, 40.0])
    w = make_weights("relative", f)
    assert np.isclose(np.linalg.norm(w), 1.0)
    assert np.allclose(w * f, w[0] * f[0])


def test_custom_weights_normalized_and_validated():
    f = np.array([1.0, 2.0])
    w = make_weights("custom", f, custom=[3.0, 4.0])
    assert np.allclose(w, [0.6, 0.8])
    with pytest.raises(DimensionMismatchError):
        make_weights("custom", f, custom=[1.0])
    for bad in ([-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]):
        with pytest.raises(ValueError):
            make_weights("custom", f, custom=bad)
    with pytest.raises(ValueError):
        make_weights("bogus", f)


def test_weighted_mismatch_hand_value():
    f = np.array([2.0, 5.0])
    fbar = np.array([1.0, 3.0])
    w = np.array([0.6, 0.8])
    # (0.6 * 1)^2 + (0.8 * 2)^2 = 0.36 + 2.56
    assert np.isclose(weighted_mismatch(f, fbar, w), 2.92)
    assert weighted_mismatch(fbar, fbar, w) == 0.0


def small_problem(rng, ell=2, n=30, s=3):
    k0, m0 = random_spd_pencil(n, rng)
    dk = [SparseSymMatrix(a.pattern, 0.3 * a.data)
          for a in (random_banded_spd(n, rng, bandwidth=1) for _ in range(ell))]
    dm = [SparseSymMatrix(a.pattern, 0.01 * a.data)
          for a in (random_banded_spd(n, rng, bandwidth=1) for _ in range(ell))]
    pencil = ParametricPencil(k0, m0, dk, dm, ["p%d" % j for j in range(ell)])
    box = FeasibleBox(np.full(ell, 0.1), np.full(ell, 4.0))
    x = np.full(ell, 1.0)
    k, m = pencil.evaluate(x)
    lam = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True, subset_by_index=[0, s - 1])
    measured = frequencies_from_eigenvalues(lam) * 1.05
    return pencil, box, measured


def test_problem_validation():
    rng = np.random.default_rng(41)
    pencil, box, measured = small_problem(rng)
    with pytest.raises(ValueError):
        UpdatingProblem(pencil, box, measured=measured[::-1])  # not ascending
    with pytest.raises(ValueError):
        UpdatingProblem(pencil, box, measured=-measured)
    for bad, i in ((np.nan, 0), (np.nan, -1), (np.inf, -1)):
        targets = measured.copy()
        targets[i] = bad
        with pytest.raises(ValueError, match="finite"):
            UpdatingProblem(pencil, box, measured=targets)
    with pytest.raises(ValueError):
        UpdatingProblem(pencil, FeasibleBox([0.1], [4.0]), measured=measured)
    for key in ("lanczos_tol", "criticality_tol"):
        for bad in (np.nan, -1.0, 0.0, np.inf):
            with pytest.raises(ValueError, match=key + " must be positive and finite"):
                UpdatingProblem(pencil, box, measured=measured, **{key: bad})
    for bad in (0.1, 1.0, 10.0):  # at 0.1 the bound already let wrong modes through
        with pytest.raises(ValueError, match="lanczos_tol must be positive and finite and below 1"):
            UpdatingProblem(pencil, box, measured=measured, lanczos_tol=bad)


def test_problem_rejects_parameterless_pencil():
    rng = np.random.default_rng(42)
    k0, m0 = random_spd_pencil(20, rng)
    pencil = ParametricPencil(k0, m0, [], [], [])
    box = FeasibleBox(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="nothing to update"):
        UpdatingProblem(pencil, box, measured=[1.0, 2.0])


def test_evaluate_full_counts_factorizations():
    rng = np.random.default_rng(43)
    pencil, box, measured = small_problem(rng)
    problem = UpdatingProblem(pencil, box, measured=measured)
    counter = EvalCounter()
    evaluate_full(problem, np.ones(2), counter)
    evaluate_full(problem, np.full(2, 1.1), counter)
    assert counter.factorizations == 2
    assert counter.lanczos_runs == 2


def test_scaled_problem_evaluates_identically():
    rng = np.random.default_rng(44)
    pencil, box, measured = small_problem(rng)
    problem = UpdatingProblem(pencil, box, measured=measured)
    ref = np.array([0.8, 1.6])
    scaled = problem.scaled_by(ref)
    x = np.array([1.1, 0.7])
    a = evaluate_full(problem, x * ref)
    b = evaluate_full(scaled, x)
    assert np.allclose(a.frequencies, b.frequencies, rtol=1e-9)


def test_eigenvalue_derivatives_match_finite_differences():
    rng = np.random.default_rng(45)
    pencil, box, measured = small_problem(rng, s=3)
    problem = UpdatingProblem(pencil, box, measured=measured, lanczos_tol=1e-10)
    x = np.ones(2)
    ev = evaluate_full(problem, x)
    dlam = eigenvalue_derivatives(pencil, ev.lanczos.eigenvalues, ev.lanczos.vectors)

    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        kp, mp = pencil.evaluate(x + e)
        km, mm = pencil.evaluate(x - e)
        lp = sla.eigh(kp.to_dense(), mp.to_dense(), eigvals_only=True, subset_by_index=[0, 2])
        lm = sla.eigh(km.to_dense(), mm.to_dense(), eigvals_only=True, subset_by_index=[0, 2])
        fd = (lp - lm) / (2 * h)
        assert np.all(np.abs(fd - dlam[:, j]) <= 1e-5 * np.abs(fd))


def test_unused_parameter_has_exactly_zero_gradient():
    rng = np.random.default_rng(46)
    k0, m0 = random_spd_pencil(25, rng)
    n = 25
    empty = SparseSymMatrix.from_full(np.zeros((n, n)))
    live_k = random_banded_spd(n, rng, bandwidth=1)
    live_k = SparseSymMatrix(live_k.pattern, 0.2 * live_k.data)
    live_m = random_banded_spd(n, rng, bandwidth=1)
    live_m = SparseSymMatrix(live_m.pattern, 0.01 * live_m.data)
    pencil = ParametricPencil(k0, m0, [live_k, empty], [live_m, empty], ["live", "dead"])
    box = FeasibleBox([0.1, 0.1], [4.0, 4.0])
    x = np.ones(2)
    k, m = pencil.evaluate(x)
    lam = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True, subset_by_index=[0, 1])
    measured = frequencies_from_eigenvalues(lam) * 1.1
    problem = UpdatingProblem(pencil, box, measured=measured)
    ev = evaluate_full(problem, x)
    g = full_gradient(problem, ev)
    assert g[1] == 0.0
    assert g[0] != 0.0


def test_full_gradient_matches_finite_differences_small():
    rng = np.random.default_rng(47)
    pencil, box, measured = small_problem(rng)
    problem = UpdatingProblem(pencil, box, measured=measured, lanczos_tol=1e-10)
    x = np.array([1.2, 0.9])
    ev = evaluate_full(problem, x)
    g = full_gradient(problem, ev)
    lam = ev.lanczos.eigenvalues
    dlam = eigenvalue_derivatives(pencil, lam, ev.lanczos.vectors)
    jac = residual_jacobian(lam, dlam, problem.weights)
    r = residuals(ev.frequencies, problem.measured, problem.weights)
    assert jac.shape == (problem.s, 2)
    assert np.allclose(g, 2.0 * jac.T @ r, rtol=1e-13, atol=0)

    def frequencies(y):
        k, m = pencil.evaluate(y)
        lam = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True,
                       subset_by_index=[0, problem.s - 1])
        return frequencies_from_eigenvalues(lam)

    def phi(y):
        return weighted_mismatch(frequencies(y), problem.measured, problem.weights)

    def resid(y):  # r(x) = w (f(x) - fbar)
        return problem.weights * (frequencies(y) - problem.measured)

    h = 1e-6
    fd = np.array([
        (phi(x + h * np.eye(2)[j]) - phi(x - h * np.eye(2)[j])) / (2 * h)
        for j in range(2)
    ])
    assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)
    for j in range(2):  # each column of J
        fd_j = (resid(x + h * np.eye(2)[j]) - resid(x - h * np.eye(2)[j])) / (2 * h)
        assert np.linalg.norm(fd_j - jac[:, j]) <= 1e-6 * np.linalg.norm(jac[:, j])


def test_repeated_eigenvalue_has_no_gradient():
    # diagonal pencil whose second and third eigenvalues coincide: any
    # orthonormal pair spanning their eigenspace is a valid eigenbasis,
    # so the sensitivity formula would return an arbitrary answer
    def diagonal(values):
        return SparseSymMatrix.from_full(np.diag(values))

    lam = np.array([1.0, 2.0, 2.0, 5.0])
    dk = diagonal([1.0, 0.0, 1.0, 0.0])
    dm = diagonal([0.0, 0.5, 0.0, 0.0])
    pencil = ParametricPencil(diagonal(lam), diagonal(np.ones(4)), [dk], [dm], ["p"])
    vectors = np.eye(4)[:, :3]  # M-normalized: M = I
    with pytest.raises(ClusteredEigenvaluesError):
        eigenvalue_derivatives(pencil, lam[:3], vectors)
    # the simple pair below the repeated one is still differentiable
    dlam = eigenvalue_derivatives(pencil, lam[:2], vectors[:, :2])
    assert np.allclose(dlam[:, 0], [1.0, -1.0])
