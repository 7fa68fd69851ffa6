"""Box-constrained trust-region driver over recycled reduced models.

Outer loop (``solve``): at the current iterate a converged Lanczos run
provides the objective value, its gradient, and a local reduced model.
The trial step minimizes the surrogate over the intersection of the
feasible box with an infinity-norm ball of radius Delta by projected
Newton steps on the surrogate's Gauss-Newton Hessian; the inner solve
rejects a point where the surrogate is out of range or its leading
eigenvalues cluster, and shortens its step. The agreement ratio

    rho = (phi(x) - phi(x + step)) / (model(x) - model(x + step))

decides acceptance (rho >= ETA1) and the radius update: expansion by
GROWTH (capped at DELTA_MAX) when rho >= ETA2, unchanged radius for
intermediate rho, shrink by GAMMA2 on rejection. A step whose trial
point's stiffness is not positive definite, whose Lanczos run fails
(basis cap or exhausted Krylov space), or whose new model cannot be
built because its eigenvalues cluster, is rejected like one with a low
ratio; its record keeps the error's name as the reason. A new surrogate
is built only at accepted iterates, from the trial point's own Lanczos
data, so each outer iteration costs exactly one sparse factorization.
The start costs one more, none if the pencil holds it (``objective._held``).
The iterate is its model: x, its value and its frequencies are the
model's expansion point and its own evaluation there
(``ReducedModel.at_x0``), equal to the full evaluation's bit for bit
(``build_reduced_model`` checks it). Each trial's evaluation is dropped
once its model is built or its step rejected, so no two Lanczos runs'
n-row arrays are alive at once, and each inner solve starts from
``at_x0`` instead of computing it again.
The loop stops once the projected-gradient criticality
||P(x - grad) - x|| is at or below the problem's tolerance. It is
tested before every step, so a start that is already critical takes
none.

All coordinates here are scaled: ``solve`` rescales the problem so the
starting point becomes the all-ones vector, and maps the final iterate
back to physical units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boxmin import minimize_box, projected_gradient_norm
from .errors import (
    ClusteredEigenvaluesError,
    MaxIterationsError,
    NotPositiveDefiniteError,
    SubspaceExhaustedError,
    SurrogateOutOfRangeError,
)
from .objective import EvalCounter, evaluate_full
from .reduced import build_reduced_model, evaluate_reduced_with_gradient


# Fixed by measurement (ROADMAP "Solver knobs"): eta2 = 0.75 raised the
# spread-0.25 rows, delta0 = 0.5 took vault failures from 7 to 13 of 40,
# and an inner tolerance tied to chi failed 1 to 21 of 40 solves.
ETA1, ETA2 = 0.05, 0.9  # acceptance and enlargement thresholds on rho
GAMMA2, GROWTH = 0.5, 2.0  # radius shrink on rejection, growth on rho >= ETA2
DELTA0, DELTA_MAX = 0.1, 1.0  # initial and largest radius (scaled coordinates)
INNER_TOL = 1e-8


@dataclass
class OuterRecord:
    """One outer iteration (k = 0 is the starting point)."""

    k: int
    value: float
    frequencies: np.ndarray
    chi: float
    delta: float
    rho: float  # nan for k = 0 and when no trial value was produced
    accepted: bool
    factorizations: int
    wall_s: float  # seconds since the solve began, at the record (0 for k = 0)
    x: np.ndarray
    step_norm: float = 0.0
    model_value_gap: float = np.nan
    model_grad_gap: float = np.nan
    # why the step was rejected: "no_decrease", "low_ratio", or the name
    # of the trial point's factorization, Lanczos or model-build error;
    # "" when accepted and for k = 0
    reason: str = ""
    # the step's inner solve: iterations and BoxMinResult.status
    # (0 and "" for k = 0)
    inner_iterations: int = 0
    inner_status: str = ""


@dataclass
class SolveResult:
    x: np.ndarray  # physical units
    value: float
    frequencies: np.ndarray
    chi: float
    converged: bool
    n_outer: int
    counter: EvalCounter
    history: list
    reference: np.ndarray  # scaling reference (physical units of all-ones)


def solve(problem, x0=None, counter=None, max_outer=100):
    """Minimize the updating objective from x0 (physical units).

    The problem is rescaled so x0 maps to the all-ones vector; radii,
    tolerances, and the returned history are in those scaled
    coordinates. Returns a SolveResult with the final parameters mapped
    back to physical units. The loop stops after ``max_outer`` steps.
    """
    if not max_outer >= 0:
        raise ValueError("max_outer must be >= 0, got %r" % max_outer)
    counter = counter if counter is not None else EvalCounter()
    problem, reference = problem.scaled_from(x0)
    box = problem.box
    t0 = time.perf_counter()
    history = []

    def record(rho=np.nan, reason="", **step):
        accepted = not reason  # k = 0 counts as accepted: a model is built
        history.append(
            OuterRecord(
                k=len(history),
                value=model.at_x0[0],
                frequencies=model.at_x0[1].copy(),
                chi=chi,
                delta=delta,
                rho=rho,
                accepted=accepted,
                factorizations=counter.factorizations,
                wall_s=time.perf_counter() - t0 if history else 0.0,
                x=model.x0.copy(),
                model_value_gap=0.0 if accepted else np.nan,  # the build checks it
                model_grad_gap=model.grad_gap if accepted else np.nan,
                reason=reason,
                **step,
            )
        )

    def surrogate(y):
        if np.array_equal(y, model.x0):  # the inner solve's first point
            out = model.at_x0
        else:
            out = evaluate_reduced_with_gradient(model, y)
        return out[0], out

    model = build_reduced_model(problem, evaluate_full(problem, np.ones(len(reference)), counter))
    chi = projected_gradient_norm(model.x0, model.gradient, box.lower, box.upper)
    delta = DELTA0
    record()
    while chi > problem.criticality_tol and len(history) <= max_outer:
        x, value = model.x0, model.at_x0[0]
        inner = minimize_box(
            surrogate,
            lambda out: out[2],
            x,
            np.maximum(box.lower, x - delta),
            np.minimum(box.upper, x + delta),
            tol=INNER_TOL,
            reject=(SurrogateOutOfRangeError, ClusteredEigenvaluesError),
            hess=lambda out: out[3],
        )
        step_norm = float(np.max(np.abs(inner.x - x)))
        predicted = value - inner.value
        rho, reason = np.nan, ""
        if step_norm == 0.0 or predicted <= 0.0:
            step_norm, reason = 0.0, "no_decrease"  # no trial point evaluated
        else:
            try:
                trial = evaluate_full(problem, inner.x, counter)
                rho = float((value - trial.value) / predicted)
                if rho >= ETA1:
                    model = build_reduced_model(problem, trial)  # a failed build keeps it
                else:
                    reason = "low_ratio"
            except (
                NotPositiveDefiniteError,
                MaxIterationsError,
                SubspaceExhaustedError,
                ClusteredEigenvaluesError,
            ) as exc:
                reason = type(exc).__name__  # the trial factorization is counted
            trial = None  # its model is built or its step rejected

        if reason:
            delta *= GAMMA2
        else:
            if rho >= ETA2:
                delta = min(GROWTH * delta, DELTA_MAX)
            chi = projected_gradient_norm(model.x0, model.gradient, box.lower, box.upper)
        record(
            rho=rho,
            reason=reason,
            step_norm=step_norm,
            inner_iterations=inner.iterations,
            inner_status=inner.status,
        )

    return SolveResult(
        x=model.x0 * reference,
        value=model.at_x0[0],
        frequencies=model.at_x0[1].copy(),
        chi=chi,
        converged=chi <= problem.criticality_tol,
        n_outer=len(history) - 1,
        counter=counter,
        history=history,
        reference=reference,
    )
