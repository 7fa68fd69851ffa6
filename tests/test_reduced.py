"""Local surrogate: consistency at the expansion point, quadratic
remainder, gradients, and range guards."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, strategies as st

from femupdate import (
    ClusteredEigenvaluesError,
    FeasibleBox,
    ModelConsistencyError,
    ParametricPencil,
    ReducedModel,
    SparseSymMatrix,
    SurrogateOutOfRangeError,
    UpdatingProblem,
    build_reduced_model,
    cholesky_factorize,
    evaluate_full,
    evaluate_reduced,
    evaluate_reduced_with_gradient,
    full_gradient,
    frequencies_from_eigenvalues,
    reduced_gradient,
    weighted_mismatch,
)
from femupdate.objective import eigenvalue_derivatives
from femupdate.reduced import Z_FLOOR

from conftest import random_banded_spd, random_spd_pencil


def make_problem(rng, ell=2, n=40, s=3, lanczos_tol=1e-9):
    k0, m0 = random_spd_pencil(n, rng)
    dk = [SparseSymMatrix(a.pattern, 0.3 * a.data)
          for a in (random_banded_spd(n, rng, bandwidth=1) for _ in range(ell))]
    dm = [SparseSymMatrix(a.pattern, 0.02 * a.data)
          for a in (random_banded_spd(n, rng, bandwidth=1) for _ in range(ell))]
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
    )
    # at delta = 2 the reduced operator is t - 2 I, entirely negative
    with pytest.raises(SurrogateOutOfRangeError):
        evaluate_reduced(model, np.array([3.0]))


def test_value_mismatch_at_expansion_point_raises(monkeypatch):
    import femupdate.reduced as reduced

    rng = np.random.default_rng(57)
    problem = make_problem(rng)
    ev = evaluate_full(problem, np.ones(2))
    exact = reduced.evaluate_reduced_with_gradient

    def drifted(model, x):
        value, freqs, grad = exact(model, x)
        return np.nextafter(value, np.inf), freqs, grad

    monkeypatch.setattr(reduced, "evaluate_reduced_with_gradient", drifted)
    with pytest.raises(ModelConsistencyError):
        build_reduced_model(problem, ev)


def test_model_keeps_the_full_gradient_at_its_expansion_point():
    rng = np.random.default_rng(58)
    problem = make_problem(rng)
    ev = evaluate_full(problem, np.ones(2))
    model = build_reduced_model(problem, ev)
    assert np.array_equal(model.gradient, full_gradient(problem, ev))
    assert np.array_equal(model.x0, ev.x)
    # the gaps it keeps are those a surrogate evaluation at x0 would give
    value, _, grad = evaluate_reduced_with_gradient(model, ev.x)
    assert model.value_gap == abs(value - ev.value) == 0.0
    assert model.grad_gap == np.linalg.norm(grad - model.gradient)


def test_build_makes_no_back_substitution(monkeypatch):
    from femupdate.sparse import CholeskyFactor

    rng = np.random.default_rng(59)
    problem = make_problem(rng)
    ev = evaluate_full(problem, np.ones(2))
    exact = CholeskyFactor.solve
    calls = []

    def counted(factor, b):
        calls.append(np.shape(b))
        return exact(factor, b)

    monkeypatch.setattr(CholeskyFactor, "solve", counted)
    build_reduced_model(problem, ev)
    assert calls == []


def test_increments_match_a_build_from_fresh_solves():
    rng = np.random.default_rng(60)
    problem = make_problem(rng, ell=3)
    ev = evaluate_full(problem, np.ones(3))
    model = build_reduced_model(problem, ev)
    u = ev.lanczos.basis
    k, m = problem.pencil.evaluate(ev.x)
    y = cholesky_factorize(k).solve(m.matvec(u))  # Y = K⁻¹ M U, solved again
    for j in range(problem.pencil.n_parameters):
        dk, dm = problem.pencil.derivative(j)
        s_ref = u.T @ dm.matvec(u)
        b = u.T @ dm.matvec(y)
        g_ref = b + b.T - y.T @ dk.matvec(y)
        assert np.abs(model.s_hats[j] - s_ref).max() <= 1e-12 * np.abs(s_ref).max()
        assert np.abs(model.g_hats[j] - g_ref).max() <= 1e-12 * np.abs(g_ref).max()


def _orthogonal(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q


def _small_symmetric(rng, p, m, scale):
    a = rng.standard_normal((p, m, m))
    return scale * (a + a.transpose(0, 2, 1)) / (2.0 * np.sqrt(m))


def _random_model(rng, m, s_frac, p):
    """Random small model: T symmetric positive definite with separated
    eigenvalues; Z = I + small symmetric and C = T + small symmetric."""
    s = 1 + int(s_frac * (m - 2))  # 1 <= s < m
    spectrum = 0.2 + np.cumsum(rng.uniform(0.05, 0.3, m))
    q = _orthogonal(rng, m)
    weights = rng.uniform(0.1, 1.0, s)
    return ReducedModel(
        x0=rng.uniform(0.5, 2.0, p),
        tridiagonal=(q * spectrum) @ q.T,
        s_hats=_small_symmetric(rng, p, m, 0.1),
        g_hats=_small_symmetric(rng, p, m, 0.1),
        g_corr=rng.standard_normal(p),
        measured=np.sort(rng.uniform(0.05, 0.5, s)),
        weights=weights / np.linalg.norm(weights),
        s=s,
    )


@given(
    m=st.integers(2, 12),
    s_frac=st.floats(0.0, 1.0),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_surrogate_matches_dense_generalized_oracle(m, s_frac, p, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, m, s_frac, p)
    s = model.s
    delta = rng.uniform(-0.5, 0.5, p)
    z = np.eye(m) + np.tensordot(delta, model.s_hats, axes=1)
    c = model.tridiagonal + np.tensordot(delta, model.g_hats, axes=1)

    # dense oracle: generalized eigensolver and the sensitivity formula
    # dmu_i/ddelta_j = u_i^T (G_j - mu_i S_j) u_i / (u_i^T Z u_i)
    mu, vec = sla.eigh(c, z)
    check = mu[::-1][: s + 1]
    assume(np.min(-np.diff(check) / check[:-1]) > 1e-3)
    mu, vec = mu[::-1][:s], vec[:, ::-1][:, :s]
    lam = 1.0 / mu
    f = np.sqrt(lam) / (2.0 * np.pi)
    r = model.weights * (f - model.measured)
    value = float(r @ r) + float(model.g_corr @ delta)
    uzu = np.einsum("ai,ai->i", vec, z @ vec)
    dmu = np.array([
        [vec[:, i] @ (g - mu[i] * s_hat) @ vec[:, i] / uzu[i]
         for g, s_hat in zip(model.g_hats, model.s_hats)]
        for i in range(s)
    ])
    dlam = -dmu / mu[:, None] ** 2
    coef = model.weights**2 * (f - model.measured) / (2.0 * np.pi * np.sqrt(lam))
    grad = coef @ dlam + model.g_corr

    x = model.x0 + delta
    value_r, f_r, grad_r = evaluate_reduced_with_gradient(model, x)
    assert np.allclose(f_r, f, rtol=1e-11, atol=0.0)
    assert abs(value_r - value) <= 1e-11 * max(1.0, abs(value))
    assert np.linalg.norm(grad_r - grad) <= 1e-9 * max(1.0, np.linalg.norm(grad))
    value_only, f_only = evaluate_reduced(model, x)
    assert value_only == value_r and np.array_equal(f_only, f_r)


@given(
    m=st.integers(3, 12),
    s_frac=st.floats(0.0, 1.0),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_hessian_matches_central_difference_of_the_gradient(m, s_frac, p, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, m, s_frac, p)
    delta = rng.uniform(-0.3, 0.3, p)
    z = np.eye(m) + np.tensordot(delta, model.s_hats, axes=1)
    c = model.tridiagonal + np.tensordot(delta, model.g_hats, axes=1)
    check = sla.eigvalsh(c, z)[::-1][: model.s + 1]
    assume(np.min(-np.diff(check) / check[:-1]) > 1e-3)

    x = model.x0 + delta
    value, f_hat, grad = evaluate_reduced_with_gradient(model, x)
    value_h, f_h, grad_h, hess = evaluate_reduced_with_gradient(model, x, hessian=True)
    # the flag adds the Hessian and changes no bit of the rest
    assert value_h == value and np.array_equal(f_h, f_hat)
    assert np.array_equal(grad_h, grad)
    assert hess.shape == (p, p) and np.array_equal(hess, hess.T)

    step = 1e-5
    central = np.empty((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = step
        central[:, j] = (
            evaluate_reduced_with_gradient(model, x + e)[2]
            - evaluate_reduced_with_gradient(model, x - e)[2]
        ) / (2.0 * step)
    assert np.abs(hess - central).max() <= 1e-7 * max(1.0, np.abs(hess).max())


@given(m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), above=st.booleans())
def test_metric_floor_separates_points_just_inside_and_outside(m, seed, above):
    # Z = I + S has its smallest eigenvalue 1% above or below z_floor
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, m)
    d[rng.integers(m)] = Z_FLOOR * (1.01 if above else 0.99)
    q = _orthogonal(rng, m)
    model = ReducedModel(
        x0=np.zeros(1),
        tridiagonal=np.diag(rng.uniform(0.5, 2.0, m)),
        s_hats=((q * (d - 1.0)) @ q.T)[None],
        g_hats=np.zeros((1, m, m)),
        g_corr=np.zeros(1),
        measured=np.array([1.0]),
        weights=np.array([1.0]),
        s=1,
    )
    if above:
        value, _ = evaluate_reduced(model, np.ones(1))
        assert np.isfinite(value)
    else:
        with pytest.raises(SurrogateOutOfRangeError):
            evaluate_reduced(model, np.ones(1))


def _on_rows(n, rows, rng, scale):
    """Random symmetric positive semidefinite increment on the given rows."""
    b = rng.standard_normal((rows.size, rows.size))
    full = np.zeros((n, n))
    full[np.ix_(rows, rows)] = scale * (b @ b.T) / rows.size
    return SparseSymMatrix.from_full(full)


def _mixed_problem(n, s, extra, seed):
    """Problem whose parameters move K and M, neither, one row of K or M,
    and then K, M or both on random rows (``extra`` of them)."""
    rng = np.random.default_rng(seed)
    k0, m0 = random_spd_pencil(n, rng)
    empty = SparseSymMatrix.from_full(np.zeros((n, n)))

    def rows(size):
        return np.sort(rng.choice(n, size, replace=False))

    shared = rows(int(rng.integers(1, n + 1)))
    one = rows(1)
    moves_k = [True, False, bool(rng.integers(2))]
    moves_m = [True, False, not moves_k[2]]
    for kind in rng.integers(1, 4, extra):  # 1: K only, 2: M only, 3: both
        moves_k.append(bool(kind & 1))
        moves_m.append(bool(kind & 2))
    supports = [shared, None, one] + [rows(int(rng.integers(1, n + 1))) for _ in range(extra)]
    dk = [_on_rows(n, r, rng, 0.3) if mk else empty for r, mk in zip(supports, moves_k)]
    dm = [_on_rows(n, r, rng, 0.05) if mm else empty for r, mm in zip(supports, moves_m)]
    p = len(dk)
    pencil = ParametricPencil(k0, m0, dk, dm)
    measured = np.sort(rng.uniform(0.05, 0.5, s))
    return UpdatingProblem(pencil, FeasibleBox(np.full(p, 0.1), np.full(p, 5.0)),
                           measured=measured, lanczos_tol=1e-10)


@given(
    n=st.integers(6, 30),
    s=st.integers(1, 3),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_restricted_projections_match_dense_formulas(n, s, extra, seed):
    problem = _mixed_problem(n, s, extra, seed)
    pencil = problem.pencil
    ev = evaluate_full(problem, np.ones(pencil.n_parameters))
    lam, v = ev.lanczos.eigenvalues, ev.lanczos.vectors
    assume(np.min(np.diff(lam) / lam[:-1], initial=1.0) > 1e-6)
    model = build_reduced_model(problem, ev)
    dlam = eigenvalue_derivatives(pencil, lam, v)
    u, y = ev.lanczos.basis, ev.lanczos.solves
    m = pencil.evaluate(ev.x)[1].to_dense()
    vmv = np.einsum("ni,ni->i", v, m @ v)
    for j in range(pencil.n_parameters):
        dk, dm = (a.to_dense() for a in pencil.derivative(j))
        s_ref = u.T @ dm @ u
        b, c = u.T @ dm @ y, y.T @ dk @ y
        g_ref = b + b.T - c
        assert np.abs(model.s_hats[j] - s_ref).max() <= 1e-12 * np.abs(s_ref).max()
        g_scale = max(np.abs(b).max(), np.abs(c).max())
        assert np.abs(model.g_hats[j] - g_ref).max() <= 1e-12 * g_scale
        vkv = np.einsum("ni,ni->i", v, dk @ v)
        vdv = lam * np.einsum("ni,ni->i", v, dm @ v)
        d_scale = np.max((np.abs(vkv) + np.abs(vdv)) / vmv)
        assert np.abs(dlam[:, j] - (vkv - vdv) / vmv).max() <= 1e-12 * d_scale


def test_projections_skip_empty_increments_and_full_products(monkeypatch):
    # the increments are only ever used through their row-restricted
    # block, and the empty ones not at all
    problem = _mixed_problem(24, 3, 2, seed=61)
    pencil = problem.pencil
    increments = {
        id(a): a for j in range(pencil.n_parameters) for a in pencil.derivative(j)
    }
    nonempty = [id(a) for a in increments.values() if a.pattern.nnz]
    assert len(nonempty) < len(increments)  # the both-empty parameter at least
    ev = evaluate_full(problem, np.ones(pencil.n_parameters))
    calls = []
    for name in ("matvec", "to_scipy", "to_dense", "local"):
        exact = getattr(SparseSymMatrix, name)

        def counted(matrix, *args, _name=name, _exact=exact):
            if id(matrix) in increments:
                calls.append((_name, id(matrix)))
            return _exact(matrix, *args)

        monkeypatch.setattr(SparseSymMatrix, name, counted)
    build_reduced_model(problem, ev)  # the projections and the full gradient
    assert sorted(calls) == sorted([("local", i) for i in nonempty] * 2)
    calls.clear()
    eigenvalue_derivatives(pencil, ev.lanczos.eigenvalues, ev.lanczos.vectors)
    assert sorted(calls) == sorted(("local", i) for i in nonempty)


def test_scaled_pencil_shares_each_increment_support():
    pencil = _mixed_problem(12, 2, 2, seed=62).pencil
    scaled = pencil.scaled_by(np.linspace(0.5, 2.0, pencil.n_parameters))
    for j in range(pencil.n_parameters):
        for a, b in zip(pencil.derivative(j), scaled.derivative(j)):
            assert b.pattern.support() is a.pattern.support()
            rows, local = b.local()
            assert np.array_equal(local.toarray(), b.to_dense()[np.ix_(rows, rows)])
