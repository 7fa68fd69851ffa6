"""Box-constrained trust-region driver over recycled reduced models.

Outer loop: at the current iterate a converged Lanczos run provides the
objective value, its gradient, and a local reduced model. The trial
step minimizes the surrogate over the intersection of the feasible box
with an infinity-norm ball of radius Delta. The agreement ratio

    rho = (phi(x) - phi(x + step)) / (model(x) - model(x + step))

decides acceptance (rho >= eta1) and the radius update: expansion by
``growth`` (capped at delta_max) when rho >= eta2, unchanged radius for
intermediate rho, shrink by gamma2 on rejection. A new surrogate is
built only at accepted iterates, from the trial point's own Lanczos
data, so each outer iteration costs exactly one sparse factorization.
Convergence is declared when the projected-gradient criticality
||P(x - grad) - x|| falls below the problem's tolerance.

All coordinates here are scaled: ``solve`` rescales the problem so the
starting point becomes the all-ones vector, and maps the final iterate
back to physical units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .boxmin import minimize_box, projected_gradient_norm
from .errors import (
    ClusteredEigenvaluesError,
    MaxIterationsError,
    SubspaceExhaustedError,
    SurrogateOutOfRangeError,
)
from .objective import EvalCounter, evaluate_full
from .reduced import build_reduced_model, evaluate_reduced_with_gradient


@dataclass
class TrustRegionConfig:
    eta1: float = 0.05
    eta2: float = 0.9
    gamma2: float = 0.5
    growth: float = 2.0
    delta0: float = 0.1
    delta_max: float = 1.0
    max_outer: int = 100
    inner_tol: float = 1e-8
    inner_max_iter: int = 400


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
    wall_s: float
    x: np.ndarray
    step_norm: float = 0.0
    model_value_gap: float = np.nan
    model_grad_gap: float = np.nan
    # why the step was rejected: "no_decrease", "low_ratio", or the name
    # of the trial point's Lanczos or model-build error; "" when accepted
    # and for k = 0
    reason: str = ""
    # the step's inner solve: iterations and BoxMinResult.status
    # (0 and "" for k = 0)
    inner_iterations: int = 0
    inner_status: str = ""


@dataclass
class TrustRegionState:
    x: np.ndarray
    delta: float
    evaluation: object
    gradient: np.ndarray
    chi: float
    model: object
    k: int = 0
    converged: bool = False
    history: list = field(default_factory=list)


@dataclass
class SolveResult:
    x: np.ndarray  # physical units
    x_scaled: np.ndarray
    value: float
    frequencies: np.ndarray
    chi: float
    converged: bool
    n_outer: int
    n_models: int
    counter: EvalCounter
    history: list
    reference: np.ndarray  # scaling reference (physical units of all-ones)


def criticality(box, x, gradient):
    """Projected-gradient criticality ||P_box(x - grad) - x||."""
    return projected_gradient_norm(x, gradient, box.lower, box.upper)


def start_state(problem, x0, config, counter):
    """Evaluate the starting point and build the first surrogate."""
    x0 = np.asarray(x0, dtype=np.float64)
    ev = evaluate_full(problem, x0, counter)
    model = build_reduced_model(problem, ev)
    grad = model.gradient
    state = TrustRegionState(
        x=x0.copy(),
        delta=config.delta0,
        evaluation=ev,
        gradient=grad,
        chi=criticality(problem.box, x0, grad),
        model=model,
    )
    state.history.append(
        OuterRecord(
            k=0,
            value=ev.value,
            frequencies=ev.frequencies.copy(),
            chi=state.chi,
            delta=state.delta,
            rho=np.nan,
            accepted=True,
            factorizations=counter.factorizations,
            wall_s=0.0,
            x=x0.copy(),
            model_value_gap=model.value_gap,
            model_grad_gap=model.grad_gap,
        )
    )
    return state


def outer_iterate(state, problem, config, counter, wall_s=0.0):
    """Run one outer trust-region iteration, mutating the state.

    The inner solve takes projected Newton steps on the surrogate's
    exact Hessian. A trial point where the surrogate is out of range or
    its leading eigenvalues cluster is rejected by the inner solver,
    which then shortens its step. A step whose trial point's Lanczos run
    fails (basis cap or exhausted Krylov space), or whose new model
    cannot be built because its eigenvalues cluster, is rejected like
    one with a low agreement ratio: the radius shrinks and the record
    keeps the error's name as its reason.
    """
    model = state.model
    lo = np.maximum(problem.box.lower, state.x - state.delta)
    hi = np.minimum(problem.box.upper, state.x + state.delta)

    def surrogate(x):
        out = evaluate_reduced_with_gradient(model, x, hessian=True)
        return out[0], out

    inner = minimize_box(
        surrogate,
        lambda out: out[2],
        state.x,
        lo,
        hi,
        tol=config.inner_tol,
        max_iter=config.inner_max_iter,
        reject=(SurrogateOutOfRangeError, ClusteredEigenvaluesError),
        hess=lambda out: out[3],
    )
    step = inner.x - state.x
    step_norm = float(np.max(np.abs(step))) if step.size else 0.0
    predicted = state.evaluation.value - inner.value

    state.k += 1
    rho, reason = np.nan, ""
    if step_norm == 0.0 or predicted <= 0.0:
        step_norm, reason = 0.0, "no_decrease"  # no trial point evaluated
    else:
        try:
            trial = evaluate_full(problem, inner.x, counter)
            rho = float((state.evaluation.value - trial.value) / predicted)
            if rho >= config.eta1:
                # built before the state changes, so a failed build
                # leaves the state as it was
                new_model = build_reduced_model(problem, trial)
        except (
            MaxIterationsError,
            SubspaceExhaustedError,
            ClusteredEigenvaluesError,
        ) as exc:
            reason = type(exc).__name__  # the trial factorization is counted
        else:
            if rho < config.eta1:
                reason = "low_ratio"
    accepted = not reason

    if not accepted:
        state.delta *= config.gamma2
    elif rho >= config.eta2:
        state.delta = min(config.growth * state.delta, config.delta_max)

    vgap = ggap = np.nan
    if accepted:
        state.x = inner.x.copy()
        state.evaluation = trial
        state.model = new_model
        state.gradient = state.model.gradient
        state.chi = criticality(problem.box, state.x, state.gradient)
        vgap, ggap = state.model.value_gap, state.model.grad_gap

    state.history.append(
        OuterRecord(
            k=state.k,
            value=state.evaluation.value,
            frequencies=state.evaluation.frequencies.copy(),
            chi=state.chi,
            delta=state.delta,
            rho=rho,
            accepted=accepted,
            factorizations=counter.factorizations,
            wall_s=wall_s,
            x=state.x.copy(),
            step_norm=step_norm,
            model_value_gap=vgap,
            model_grad_gap=ggap,
            reason=reason,
            inner_iterations=inner.iterations,
            inner_status=inner.status,
        )
    )
    state.converged = state.chi <= problem.criticality_tol
    return state


def solve(problem, x0=None, config=None, counter=None):
    """Minimize the updating objective from x0 (physical units).

    The problem is rescaled so x0 maps to the all-ones vector; radii,
    tolerances, and the returned history are in those scaled
    coordinates. Returns a SolveResult with the final parameters mapped
    back to physical units.
    """
    config = config or TrustRegionConfig()
    counter = counter if counter is not None else EvalCounter()
    scaled, reference = problem.scaled_from(x0)
    t0 = time.perf_counter()
    state = start_state(scaled, np.ones(len(reference)), config, counter)
    while not state.converged and state.k < config.max_outer:
        outer_iterate(
            state,
            scaled,
            config,
            counter,
            wall_s=time.perf_counter() - t0,
        )
    return SolveResult(
        x=state.x * reference,
        x_scaled=state.x.copy(),
        value=state.evaluation.value,
        frequencies=state.evaluation.frequencies.copy(),
        chi=state.chi,
        converged=state.converged,
        n_outer=state.k,
        n_models=sum(rec.accepted for rec in state.history),
        counter=counter,
        history=state.history,
        reference=reference,
    )
