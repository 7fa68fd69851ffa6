"""Reference strategies that bypass the reduced models.

Both baselines drive the same box-constrained solver as the
trust-region inner step, but directly on the full objective: every
candidate point costs one sparse factorization plus a Lanczos run.
Strategy 'AD' uses the analytic eigenvalue-sensitivity gradient (one
evaluation per accepted iterate); strategy 'A' approximates the
gradient by forward differences, spending one extra evaluation per
parameter. They exist to quantify what the surrogate saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxmin import minimize_box
from .objective import EvalCounter, evaluate_full, full_gradient
from .trustregion import criticality

# Forward-difference step in scaled coordinates. Its truncation error,
# about FD_STEP / 2 times the objective's curvature, must stay well
# below the criticality tolerance the strategy stops on: near the arch
# solution a step of 1e-5 was off by 6e-5 against a tolerance of 1e-4,
# while 1e-6 is off by 6e-6 and is still long enough that the noise of
# the Lanczos evaluations does not dominate the difference.
FD_STEP = 1e-6


@dataclass
class BaselineResult:
    x: np.ndarray  # physical units
    value: float
    frequencies: np.ndarray
    chi: float
    converged: bool
    iterations: int
    status: str
    counter: EvalCounter


def solve_baseline(problem, x0, strategy, counter=None, max_iter=500, fd_step=FD_STEP):
    """Minimize the full objective from x0 without surrogates.

    strategy 'AD' uses analytic gradients, 'A' forward-difference
    gradients. Coordinates are scaled so x0 maps to all-ones, as in the
    trust-region driver; the reported criticality uses the analytic
    gradient in both cases.
    """
    if strategy not in ("A", "AD"):
        raise ValueError("strategy must be 'A' or 'AD', got %r" % (strategy,))
    counter = counter if counter is not None else EvalCounter()
    reference = np.asarray(
        problem.box.midpoint() if x0 is None else x0, dtype=np.float64
    )
    if np.any(reference <= 0.0):
        raise ValueError("starting point must be strictly positive for scaling")
    if not problem.box.contains(reference):
        raise ValueError("starting point lies outside the feasible box")
    scaled = problem.scaled_by(reference)

    cache = {}

    def evaluation(x):
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = evaluate_full(scaled, x, counter)
        return cache[key]

    def fun(x):
        return evaluation(x).value

    if strategy == "AD":

        def grad(x):
            return full_gradient(scaled, evaluation(x))

    else:

        def grad(x):
            f0 = fun(x)
            g = np.empty(scaled.pencil.n_parameters)
            for j in range(g.size):
                xp = x.copy()
                xp[j] += fd_step
                g[j] = (fun(xp) - f0) / fd_step
            return g

    res = minimize_box(
        fun,
        grad,
        np.ones(len(reference)),
        scaled.box.lower,
        scaled.box.upper,
        tol=problem.criticality_tol,
        max_iter=max_iter,
    )
    final = evaluation(res.x)
    chi = criticality(
        scaled.box, res.x, full_gradient(scaled, final)
    )
    return BaselineResult(
        x=res.x * reference,
        value=final.value,
        frequencies=final.frequencies.copy(),
        chi=chi,
        converged=chi <= problem.criticality_tol,
        iterations=res.iterations,
        status=res.status,
        counter=counter,
    )
