"""Projected-gradient/quasi-Newton minimizer on box constraints.

``fun`` returns ``(value, data)`` and ``grad``/``hess`` read the data;
most tests here pass the point itself as its data.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from femupdate.boxmin import minimize_box, projected_gradient_norm


def test_projected_gradient_norm_hand_values():
    lower = np.array([0.0, 0.0])
    upper = np.array([1.0, 1.0])
    x = np.array([0.5, 0.0])
    g = np.array([2.0, 1.0])
    # first coordinate clips at 0: |0 - 0.5| = 0.5; second is pinned at
    # its bound with the gradient pointing outward: no movement.
    assert np.isclose(projected_gradient_norm(x, g, lower, upper), 0.5)
    g2 = np.array([0.0, -1.0])
    # now the second coordinate wants to move inside: |min(1, 0+1) - 0| = 1
    assert np.isclose(projected_gradient_norm(x, g2, lower, upper), 1.0)
    # at a corner with the whole gradient pointing outward: zero
    corner = np.array([0.0, 0.0])
    assert projected_gradient_norm(corner, np.array([3.0, 5.0]), lower, upper) == 0.0


def quad(center, scales):
    center = np.asarray(center, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)

    def fun(x):
        return 0.5 * float(scales @ (x - center) ** 2), x

    def grad(x):
        return scales * (x - center)

    return fun, grad


def test_quadratic_interior_minimum():
    fun, grad = quad([0.3, -0.2, 1.4], [1.0, 10.0, 0.1])
    res = minimize_box(fun, grad, np.zeros(3), np.full(3, -2.0), np.full(3, 2.0))
    assert res.status == "converged"
    assert np.allclose(res.x, [0.3, -0.2, 1.4], atol=1e-6)


def test_quadratic_minimum_clamped_at_bounds():
    # separable quadratic: the box-constrained solution is the clamp
    fun, grad = quad([3.0, -5.0], [2.0, 1.0])
    res = minimize_box(fun, grad, np.zeros(2), np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert res.status == "converged"
    assert np.allclose(res.x, [1.0, -1.0], atol=1e-8)
    assert projected_gradient_norm(res.x, grad(res.x), [-1.0, -1.0], [1.0, 1.0]) <= 1e-8


def test_rosenbrock_in_box():
    def fun(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), x

    def grad(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    res = minimize_box(fun, grad, np.array([-1.2, 1.0]), np.full(2, -2.0), np.full(2, 2.0),
                       max_iter=2000)
    assert res.status == "converged"
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_start_is_projected_into_box():
    fun, grad = quad([0.0, 0.0], [1.0, 1.0])
    res = minimize_box(fun, grad, np.array([5.0, -5.0]), np.full(2, -1.0), np.full(2, 1.0))
    assert np.all(res.x >= -1.0) and np.all(res.x <= 1.0)
    assert np.allclose(res.x, [0.0, 0.0], atol=1e-7)


def test_reject_exception_shrinks_the_step():
    # fun refuses evaluations outside a ball; the solver must treat the
    # refusal as a failed step and still reach the constrained optimum.
    center = np.array([0.6, 0.6])

    class Refused(RuntimeError):
        pass

    def fun(x):
        if np.linalg.norm(x) > 1.0:
            raise Refused()
        return 0.5 * float((x - center) @ (x - center)), x

    def grad(x):
        return x - center

    res = minimize_box(
        fun, grad, np.zeros(2), np.full(2, -2.0), np.full(2, 2.0), reject=(Refused,)
    )
    assert res.status == "converged"
    assert np.allclose(res.x, center, atol=1e-6)


def test_max_iterations_status():
    fun, grad = quad([0.9], [1.0])
    res = minimize_box(fun, grad, np.zeros(1), np.array([-1.0]), np.array([1.0]),
                       max_iter=1)
    assert res.status in ("maxiter", "converged")
    res0 = minimize_box(fun, grad, np.zeros(1), np.array([-1.0]), np.array([1.0]),
                        max_iter=0)
    assert res0.status == "maxiter"
    assert res0.iterations == 0


def test_result_reports_value_and_gradient():
    fun, grad = quad([0.25, 0.75], [4.0, 4.0])
    res = minimize_box(fun, grad, np.zeros(2), np.full(2, -1.0), np.full(2, 1.0))
    assert np.isclose(res.value, fun(res.x)[0])
    assert res.data is res.x
    assert np.allclose(res.grad, grad(res.x), atol=1e-12)


def test_newton_solves_an_interior_quadratic_in_two_iterations():
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 0.1]])  # SPD, ill-scaled
    center = np.array([0.3, -0.2, 1.4])

    def fun(x):
        return 0.5 * float((x - center) @ a @ (x - center)), x

    res = minimize_box(fun, lambda x: a @ (x - center), np.zeros(3),
                       np.full(3, -2.0), np.full(3, 2.0), hess=lambda x: a)
    assert res.status == "converged"
    assert res.iterations <= 2
    assert np.allclose(res.x, center, atol=1e-10)


def test_newton_on_an_indefinite_quadratic_is_monotone_and_ends_at_kkt():
    # saddle in the middle of the box: the minimum lies on the boundary
    a = np.array([[2.0, 0.5], [0.5, -1.0]])
    b = np.array([0.3, -0.1])
    lower, upper = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    x0 = np.array([0.1, 0.05])
    evaluated, accepted = [], []

    def value(x):
        return 0.5 * float(x @ a @ x) + float(b @ x)

    def fun(x):
        evaluated.append(x)
        return value(x), x

    def grad(x):
        accepted.append(value(x))  # called at accepted iterates only
        return a @ x + b

    res = minimize_box(fun, grad, x0, lower, upper, hess=lambda x: a)
    assert res.status == "converged"
    assert all(later < earlier for earlier, later in zip(accepted, accepted[1:]))
    assert projected_gradient_norm(res.x, grad(res.x), lower, upper) <= 1e-8
    # the negative-curvature coordinate ends on a bound
    assert abs(res.x[1]) == 3.0
    # the first trial point is the full step along -|H|^{-1} g, |H| having
    # the absolute eigenvalues of H
    w, q = np.linalg.eigh(a)
    newton = x0 - q @ ((q.T @ (a @ x0 + b)) / np.abs(w))
    assert np.all(np.abs(newton) < 3.0)
    assert np.allclose(evaluated[1], newton, rtol=1e-12, atol=1e-15)


def test_newton_on_a_singular_hessian_takes_the_pseudo_inverse_step():
    # H = BᵀB has the exact null vector (1, -1, 1) and the gradient has a
    # component along it: the Newton step leaves that direction alone, where
    # an eigenvalue floor of 1e-8 max|w| would step ~1e8 times that far
    b = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    a = b.T @ b
    c = np.array([0.3, -0.2, 0.5])
    lower, upper = np.full(3, -2.0), np.full(3, 2.0)
    x0 = np.array([0.2, 0.1, -0.3])
    evaluated = []

    def fun(x):
        evaluated.append(x)
        return 0.5 * float(x @ a @ x) + float(c @ x), x

    minimize_box(fun, lambda x: a @ x + c, x0, lower, upper, max_iter=1, hess=lambda x: a)
    g0 = a @ x0 + c
    assert g0 @ [1.0, -1.0, 1.0] == pytest.approx(1.0)
    step = x0 - np.linalg.pinv(a, hermitian=True) @ g0
    assert np.all((lower < step) & (step < upper))
    assert np.max(np.abs(evaluated[1] - step)) <= 1e-12


def test_a_zero_hessian_falls_back_to_the_projected_gradient():
    # no eigenpair of a zero block is above the rank tolerance, so the
    # Newton direction is zero and the gradient direction is tried
    center = np.array([0.3, -0.4])
    evaluated = []

    def fun(x):
        evaluated.append(x)
        return float((x - center) @ (x - center)), x

    res = minimize_box(fun, lambda x: 2.0 * (x - center), np.zeros(2), np.full(2, -1.0),
                       np.full(2, 1.0), hess=lambda x: np.zeros((2, 2)))
    assert np.array_equal(evaluated[1], 2.0 * center)  # x0 - g0
    assert res.status == "converged"
    assert np.allclose(res.x, center, atol=1e-12)


def test_reject_exception_shrinks_the_newton_step():
    center = np.array([0.6, 0.6])
    refused = []

    class Refused(RuntimeError):
        pass

    def fun(x):
        if np.linalg.norm(x) > 1.0:
            refused.append(x)
            raise Refused()
        return 0.5 * float((x - center) @ (x - center)), x

    # half the true curvature: the full step from the origin lands at
    # 2 * center, outside the ball
    res = minimize_box(
        fun, lambda x: x - center, np.zeros(2), np.full(2, -2.0), np.full(2, 2.0),
        reject=(Refused,), hess=lambda x: 0.5 * np.eye(2),
    )
    assert refused
    assert res.status == "converged"
    assert np.allclose(res.x, center, atol=1e-6)


def test_clipped_backtracking_trials_are_evaluated_once():
    # the steepest-descent steps from the start leave the box, and the
    # first backtracking trials clip onto one corner, where the quartic
    # wall in x[0] fails the Armijo test every time
    center = np.array([40.0, -40.0])
    evaluated = []

    def fun(x):
        evaluated.append(x.copy())
        value = 0.5 * float((x - center) @ (x - center)) + 100.0 * x[0] ** 4
        return value, len(evaluated) - 1  # the data: where x was stored

    def grad(i):
        x = evaluated[i]
        return x - center + np.array([400.0 * x[0] ** 3, 0.0])

    res = minimize_box(fun, grad, np.full(2, 0.5), np.full(2, -1.0), np.full(2, 1.0))
    assert res.status == "converged"
    assert np.array_equal(evaluated[1], [-1.0, -1.0])  # the first trial
    assert all(not np.array_equal(a, b) for a, b in zip(evaluated, evaluated[1:]))
    assert np.array_equal(evaluated[res.data], res.x)


@pytest.mark.parametrize("newton", [False, True])
def test_flat_start_converges_after_one_evaluation(newton):
    # a constant function whose gradient is rounding noise: the
    # projected gradient is above tol, but no direction can gain more
    # than _FTOL, so no trial point is worth an evaluation
    evaluated = []

    def fun(x):
        evaluated.append(x.copy())
        return 0.0, x

    res = minimize_box(fun, lambda x: np.full(2, 1e-7), np.full(2, 0.5),
                       np.zeros(2), np.ones(2),
                       hess=(lambda x: np.eye(2)) if newton else None)
    assert res.status == "converged"
    assert len(evaluated) == 1
    assert np.array_equal(res.x, np.full(2, 0.5))


def box_kkt_oracle(a, c, lower, upper):
    """Minimum of 0.5 (x - c)^T a (x - c) over the box, a positive definite.

    Tries all 3^p active sets (each component at its lower bound, at its
    upper bound, or free) and keeps the feasible KKT points; strict
    convexity makes them one point, found once per degenerate active set.
    """
    best = None
    for sides in itertools.product((-1, 0, 1), repeat=len(c)):
        sides = np.array(sides)
        x = np.where(sides < 0, lower, upper)
        free = sides == 0
        if free.any():  # a (x - c) = 0 on the free components
            rhs = a[free] @ c - a[np.ix_(free, ~free)] @ x[~free]
            x[free] = np.linalg.solve(a[np.ix_(free, free)], rhs)
        g = a @ (x - c)
        feasible = np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        if feasible and np.all(g[sides < 0] >= -1e-12) and np.all(g[sides > 0] <= 1e-12):
            value = 0.5 * float((x - c) @ a @ (x - c))
            best = value if best is None else min(best, value)
    assert best is not None
    return best


@given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), newton=st.booleans())
def test_convex_quadratic_in_a_box_matches_the_active_set_oracle(p, seed, newton):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * 10.0 ** rng.uniform(-1.0, 1.0, p)) @ q.T  # eigenvalues 0.1 .. 10
    a = (a + a.T) / 2.0
    c = rng.uniform(-2.0, 2.0, p)  # the unconstrained minimum, often outside
    lower = rng.uniform(-1.0, 0.5, p)
    upper = lower + rng.uniform(0.1, 1.5, p)

    def fun(x):
        return 0.5 * float((x - c) @ a @ (x - c)), x

    res = minimize_box(
        fun,
        lambda x: a @ (x - c),
        rng.uniform(lower, upper),
        lower,
        upper,
        hess=(lambda x: a) if newton else None,
    )
    assert res.status == "converged"
    # converged: a projected gradient of at most 1e-8 or, where rounding
    # hides the last decrease, first-order gains below 1e-13 max(|f|, 1);
    # with eigenvalues of at least 0.1 either leaves a gap under 1e-12
    best = box_kkt_oracle(a, c, lower, upper)
    assert abs(res.value - best) <= 1e-12 * max(1.0, abs(best))
