"""Reference strategies that bypass the reduced models.

Both baselines drive the same box-constrained solver as the
trust-region inner step, but directly on the full objective: each
point but a held start costs a sparse factorization and a Lanczos run.
Strategy 'AD' uses the analytic eigenvalue-sensitivity gradient (one
evaluation per accepted iterate); strategy 'A' approximates the
gradient by forward differences, spending one extra evaluation per
parameter. They exist to quantify what the surrogate saves. A trial
point whose stiffness is not positive definite shortens the line
search's step, as it shortens the trust-region inner step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxmin import minimize_box, projected_gradient_norm
from .errors import NotPositiveDefiniteError
from .objective import EvalCounter, evaluate_full, full_gradient

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
    # BoxMinResult.status; "unconfirmed" where it says converged but chi fails
    status: str
    counter: EvalCounter


def solve_baseline(problem, x0, strategy, counter=None, max_iter=500):
    """Minimize the full objective from x0 without surrogates.

    strategy 'AD' uses analytic gradients, 'A' forward-difference
    gradients. Coordinates are scaled so x0 maps to all-ones, as in the
    trust-region driver; the reported criticality uses the analytic
    gradient in both cases.
    """
    if strategy not in ("A", "AD"):
        raise ValueError("strategy must be 'A' or 'AD', got %r" % (strategy,))
    counter = counter if counter is not None else EvalCounter()
    scaled, reference = problem.scaled_from(x0)

    def fun(x):
        ev = evaluate_full(scaled, x, counter)
        return ev.value, ev

    if strategy == "AD":

        def grad(ev):
            return full_gradient(scaled, ev)

    else:

        def grad(ev):
            g = np.empty(ev.x.size)
            for j in range(g.size):
                xp = ev.x.copy()
                xp[j] += FD_STEP
                g[j] = (fun(xp)[0] - ev.value) / FD_STEP
            return g

    res = minimize_box(
        fun,
        grad,
        np.ones(len(reference)),
        scaled.box.lower,
        scaled.box.upper,
        tol=problem.criticality_tol,
        max_iter=max_iter,
        reject=NotPositiveDefiniteError,
    )
    final = res.data
    # AD's line search already holds the analytic gradient at res.x
    g = res.grad if strategy == "AD" else full_gradient(scaled, final)
    chi = projected_gradient_norm(res.x, g, scaled.box.lower, scaled.box.upper)
    converged = chi <= problem.criticality_tol
    return BaselineResult(
        x=res.x * reference,
        value=final.value,
        frequencies=final.frequencies.copy(),
        chi=chi,
        converged=converged,
        iterations=res.iterations,
        status="unconfirmed" if res.status == "converged" and not converged else res.status,
        counter=counter,
    )
