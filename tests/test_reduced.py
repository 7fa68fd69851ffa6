"""Local surrogate: consistency at the expansion point, quadratic
remainder, gradients, and range guards."""

import numpy as np
import pytest
import scipy.linalg as sla

from femupdate import (
    ClusteredEigenvaluesError,
    FeasibleBox,
    ModelConsistencyError,
    ParametricPencil,
    ReducedModel,
    SurrogateOutOfRangeError,
    UpdatingProblem,
    build_reduced_model,
    evaluate_full,
    evaluate_reduced,
    evaluate_reduced_with_gradient,
    full_gradient,
    frequencies_from_eigenvalues,
    reduced_gradient,
    weighted_mismatch,
)

from conftest import random_banded_spd, random_spd_pencil


def make_problem(rng, ell=2, n=40, s=3, lanczos_tol=1e-9):
    k0, m0 = random_spd_pencil(n, rng)
    dk = [random_banded_spd(n, rng, bandwidth=1).scaled(0.3) for _ in range(ell)]
    dm = [random_banded_spd(n, rng, bandwidth=1).scaled(0.02) for _ in range(ell)]
    pencil = ParametricPencil(k0, m0, dk, dm, ["p%d" % j for j in range(ell)])
    box = FeasibleBox(np.full(ell, 0.05), np.full(ell, 5.0))
    k, m = pencil.evaluate(np.ones(ell))
    lam = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True, subset_by_index=[0, s - 1])
    measured = frequencies_from_eigenvalues(lam) * 1.07
    return UpdatingProblem(pencil, box, measured=measured, lanczos_tol=lanczos_tol)


def test_value_at_expansion_point_is_exact():
    rng = np.random.default_rng(51)
    problem = make_problem(rng)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)
    value, freqs = evaluate_reduced(model, x0)
    assert value == ev.value  # bitwise: same eigensolve path at delta = 0
    assert np.array_equal(freqs, ev.frequencies)


def test_gradient_at_expansion_point_matches_full():
    rng = np.random.default_rng(52)
    problem = make_problem(rng)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)
    g_full = full_gradient(problem, ev)
    g_red = reduced_gradient(model, x0)
    scale = max(1.0, np.linalg.norm(g_full))
    assert np.linalg.norm(g_red - g_full) <= 1e-12 * scale


def test_remainder_is_second_order():
    rng = np.random.default_rng(53)
    problem = make_problem(rng, lanczos_tol=1e-11)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)

    def phi_dense(x):
        k, m = problem.pencil.evaluate(x)
        lam = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True,
                       subset_by_index=[0, problem.s - 1])
        return weighted_mismatch(
            frequencies_from_eigenvalues(lam), problem.measured, problem.weights
        )

    d = np.random.default_rng(3).normal(size=2)
    d /= np.linalg.norm(d)
    remainders = []
    for t in (0.08, 0.04, 0.02, 0.01):
        xt = x0 + t * d
        remainders.append(abs(phi_dense(xt) - evaluate_reduced(model, xt)[0]))
    remainders = np.array(remainders)
    ratios = remainders[:-1] / remainders[1:]
    assert np.all(ratios >= 2.5) and np.all(ratios <= 6.0)


def test_reduced_gradient_matches_finite_differences():
    rng = np.random.default_rng(54)
    problem = make_problem(rng)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)
    x = x0 + np.array([0.02, -0.015])
    value, freqs, grad = evaluate_reduced_with_gradient(model, x)
    assert value == evaluate_reduced(model, x)[0]
    h = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[j] = (evaluate_reduced(model, x + e)[0] - evaluate_reduced(model, x - e)[0]) / (2 * h)
    assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_out_of_range_when_metric_degenerates():
    rng = np.random.default_rng(55)
    problem = make_problem(rng)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)
    # drive Z = I + sum delta_j S_j far toward indefiniteness
    far = x0 - 400.0 * np.ones(2)
    with pytest.raises(SurrogateOutOfRangeError):
        evaluate_reduced(model, far)


def test_clustered_leading_values_block_the_gradient():
    # hand-built surrogate with a degenerate leading pair: the value is
    # still defined, the sensitivity formula is not.
    t = np.diag([2.0, 2.0, 0.5])
    zero = np.zeros((3, 3))
    model = ReducedModel(
        x0=np.array([1.0]),
        tridiagonal=t,
        s_hats=np.zeros((1, 3, 3)),
        g_hats=np.array([np.diag([0.1, 0.2, 0.3])]),
        g_corr=np.zeros(1),
        measured=np.array([1.0]),
        weights=np.array([1.0]),
        s=1,
        value_at_x0=0.0,
    )
    value, _ = evaluate_reduced(model, np.array([1.0]))
    assert np.isfinite(value)
    with pytest.raises(ClusteredEigenvaluesError):
        reduced_gradient(model, np.array([1.0]))


def test_nonpositive_leading_value_is_out_of_range():
    t = np.diag([1.0, 0.5, 0.25])
    model = ReducedModel(
        x0=np.array([1.0]),
        tridiagonal=t,
        s_hats=np.zeros((1, 3, 3)),
        g_hats=np.array([-np.eye(3)]),
        g_corr=np.zeros(1),
        measured=np.array([1.0]),
        weights=np.array([1.0]),
        s=1,
        value_at_x0=0.0,
    )
    # at delta = 2 the reduced operator is t - 2 I, entirely negative
    with pytest.raises(SurrogateOutOfRangeError):
        evaluate_reduced(model, np.array([3.0]))


def test_dump_writes_matrix_market(tmp_path):
    rng = np.random.default_rng(56)
    problem = make_problem(rng)
    x0 = np.ones(2)
    ev = evaluate_full(problem, x0)
    model = build_reduced_model(problem, ev)
    prefix = tmp_path / "model"
    model.dump(str(prefix))
    assert (tmp_path / "model_T.mtx").exists()
    assert (tmp_path / "model_S0.mtx").exists()
    assert (tmp_path / "model_G1.mtx").exists()


def test_value_mismatch_at_expansion_point_raises(monkeypatch):
    import femupdate.reduced as reduced

    rng = np.random.default_rng(57)
    problem = make_problem(rng)
    ev = evaluate_full(problem, np.ones(2))
    exact = reduced.evaluate_reduced

    def drifted(model, x):
        value, freqs = exact(model, x)
        return np.nextafter(value, np.inf), freqs

    monkeypatch.setattr(reduced, "evaluate_reduced", drifted)
    with pytest.raises(ModelConsistencyError):
        build_reduced_model(problem, ev)


def test_model_keeps_the_full_gradient_at_its_expansion_point():
    rng = np.random.default_rng(58)
    problem = make_problem(rng)
    ev = evaluate_full(problem, np.ones(2))
    model = build_reduced_model(problem, ev)
    assert np.array_equal(model.gradient, full_gradient(problem, ev))
    assert np.array_equal(model.x0, ev.x)
