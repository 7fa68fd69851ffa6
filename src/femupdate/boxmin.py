"""Box-constrained minimization by projected Newton or projected L-BFGS.

Minimizes f over a box [lower, upper] starting from a feasible point.
Components pinned at an active bound (on the bound, with the gradient
pushing outward) stay fixed; on the free ones the direction is the
Newton direction when a Hessian is supplied, and otherwise a
limited-memory BFGS two-loop recursion. The Newton direction is the
pseudo-inverse step -Σ q qᵀg / |w| over the free block's eigenpairs
(w, q) with |w| above numpy's rank tolerance w.size · eps · max |w|
(Bertsekas, SIAM J. Control Optim. 20, 1982; Björck, "Numerical Methods
for Least Squares Problems", 1996): |w| makes it descend where H is
indefinite, and it does not move along directions H cannot see. Steps
follow the projected path x(t) = clip(x + t d) with Armijo backtracking
from t = 1, falling back to the projected steepest-descent direction
when the first direction fails to produce decrease. The method is
monotone: every iterate satisfies an Armijo decrease along the projected
Newton, quasi-Newton or gradient path from the previous one.

Termination is on the projected-gradient norm ||x - clip(x - g)||, or,
before any line search, on every direction's first-order gain
g^T (x - clip(x + d)) being below _FTOL max(|f|, 1): a decrease that
small is lost in the rounding error of f, so the point counts as
converged (as in L-BFGS-B's relative reduction test) without spending
evaluations on it. A line search that then finds no Armijo decrease
along any direction ends the run as stalled.

Each evaluation returns the point's value and its data, which the
gradient and the Hessian then read, so one evaluation serves all three
at an accepted point. A backtracking trial that ``clip`` maps onto the
previous trial of the same line search is not evaluated again: it would
fail the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lanczos import descending_eigh

_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_FTOL = 1e-13  # about 450 ulps of max(|f|, 1)
_MEMORY = 10  # L-BFGS pairs kept


@dataclass
class BoxMinResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    status: str  # 'converged' | 'stalled' | 'maxiter'
    data: object  # what fun returned with the value at x


def projected_gradient_norm(x, grad, lower, upper):
    return float(np.linalg.norm(x - np.clip(x - grad, lower, upper)))


def _two_loop(grad, pairs):
    q = grad.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        coeffs.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _newton_direction(grad, hess, free):
    """The Newton direction of the module docstring on the free components,
    zero on the others; all zero when no eigenpair is above the tolerance."""
    w, q = descending_eigh(hess[np.ix_(free, free)])
    w = np.abs(w)
    keep = w > w.size * np.finfo(w.dtype).eps * w.max()
    q = q[:, keep]
    d = np.zeros_like(grad)
    d[free] = -q @ ((q.T @ grad[free]) / w[keep])
    return d


def minimize_box(
    fun,
    grad,
    x0,
    lower,
    upper,
    tol=1e-8,
    max_iter=400,
    reject=(),
    hess=None,
):
    """Minimize fun over the box; see module docstring.

    Parameters
    ----------
    fun : callable
        ``fun(x)`` returns ``(value, data)``. Exceptions listed in
        ``reject`` thrown by ``fun`` mark the candidate as unacceptable
        and shorten the step.
    grad : callable
        ``grad(data)``: the gradient at the point ``data`` came from;
        called at accepted iterates only.
    hess : callable, optional
        ``hess(data)``: the Hessian there, called at accepted iterates
        only. When given, directions are projected Newton steps and no
        L-BFGS memory is kept.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    f, data = fun(x)
    g = np.asarray(grad(data), dtype=np.float64)
    h = None if hess is None else hess(data)
    pairs = []
    status = "maxiter"
    it = 0

    for it in range(1, max_iter + 1):
        if projected_gradient_norm(x, g, lower, upper) <= tol:
            status = "converged"
            break

        # bound components where the gradient pushes outward
        span = upper - lower
        at_low = (x <= lower + 1e-12 * span) & (g > 0.0)
        at_high = (x >= upper - 1e-12 * span) & (g < 0.0)
        pinned = at_low | at_high

        d = None
        if hess is not None and not np.all(pinned):
            d = _newton_direction(g, h, ~pinned)
        elif pairs:  # kept only without a Hessian
            d = -_two_loop(np.where(pinned, 0.0, g), pairs)
            d[pinned] = 0.0
        directions = []
        if d is not None and d @ g < 0.0:  # keep only if a descent direction
            directions.append(d)
        directions.append(np.where(pinned, 0.0, -g))
        gains = [g @ (x - np.clip(x + d, lower, upper)) for d in directions]
        if max(gains) <= _FTOL * max(abs(f), 1.0):
            status = "converged"
            break

        moved = None
        for d in directions:
            if not np.any(d):
                continue
            t = 1.0
            tried = None
            for _ in range(_MAX_HALVINGS):
                xc = np.clip(x + t * d, lower, upper)
                slope = g @ (xc - x)
                if slope >= 0.0 or np.array_equal(xc, tried):
                    t *= 0.5
                    continue
                tried = xc
                try:
                    fc, dc = fun(xc)
                except reject:
                    t *= 0.5
                    continue
                if fc <= f + _ARMIJO * slope:
                    moved = (xc, fc, dc)
                    break
                t *= 0.5
            if moved:
                break
            pairs = []  # quasi-Newton memory unreliable past this point
        if not moved:
            status = "stalled"
            break

        xn, fn, data = moved
        gn = np.asarray(grad(data), dtype=np.float64)
        if hess is not None:
            h = hess(data)
        else:
            s, y = xn - x, gn - g
            sy = s @ y
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y, 1.0 / sy))
                if len(pairs) > _MEMORY:
                    pairs.pop(0)
        x, f, g = xn, fn, gn

    return BoxMinResult(x=x, value=f, grad=g, iterations=it, status=status, data=data)
