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

from .boxmin import minimize_box
from .errors import ClusteredEigenvaluesError, SurrogateOutOfRangeError
from .objective import EvalCounter, evaluate_full
from .reduced import (
    build_reduced_model,
    evaluate_reduced,
    evaluate_reduced_with_gradient,
    reduced_gradient,
)


@dataclass
class TrustRegionConfig:
    eta1: float = 0.05
    eta2: float = 0.9
    gamma1: float = 0.25
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
    rho: float  # nan for k = 0 and when no step was produced
    accepted: bool
    factorizations: int
    wall_s: float
    x: np.ndarray
    step_norm: float = 0.0
    model_value_gap: float = np.nan
    model_grad_gap: float = np.nan


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
    models: list = None


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
    models: list = None  # populated when solve(..., keep_models=True)


def criticality(box, x, gradient):
    """Projected-gradient criticality ||P_box(x - grad) - x||."""
    return float(np.linalg.norm(box.project(x - gradient) - x))


def _model_gaps(problem, model, evaluation, gradient, x):
    value_r, _ = evaluate_reduced(model, x)
    grad_r = reduced_gradient(model, x)
    return abs(value_r - evaluation.value), float(
        np.linalg.norm(grad_r - gradient)
    )


def start_state(problem, x0, config, counter, keep_models=False):
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
        models=[model] if keep_models else None,
    )
    vgap, ggap = _model_gaps(problem, model, ev, grad, x0)
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
            model_value_gap=vgap,
            model_grad_gap=ggap,
        )
    )
    return state


def outer_iterate(state, problem, config, counter, wall_s=0.0):
    """Run one outer trust-region iteration, mutating the state.

    A trial point where the surrogate is out of range or its leading
    eigenvalues cluster is rejected by the inner solver, which then
    shortens its step.
    """
    model = state.model
    lo = np.maximum(problem.box.lower, state.x - state.delta)
    hi = np.minimum(problem.box.upper, state.x + state.delta)

    cache = {}

    def surrogate_value(x):
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = evaluate_reduced_with_gradient(model, x)
        return cache[key][0]

    def surrogate_grad(x):
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = evaluate_reduced_with_gradient(model, x)
        return cache[key][2]

    inner = minimize_box(
        surrogate_value,
        surrogate_grad,
        state.x,
        lo,
        hi,
        tol=config.inner_tol,
        max_iter=config.inner_max_iter,
        reject=(SurrogateOutOfRangeError, ClusteredEigenvaluesError),
    )
    step = inner.x - state.x
    step_norm = float(np.max(np.abs(step))) if step.size else 0.0
    predicted = state.evaluation.value - inner.value

    state.k += 1
    if step_norm == 0.0 or predicted <= 0.0:
        # no useful surrogate decrease: reject and shrink
        state.delta *= config.gamma2
        state.history.append(
            OuterRecord(
                k=state.k,
                value=state.evaluation.value,
                frequencies=state.evaluation.frequencies.copy(),
                chi=state.chi,
                delta=state.delta,
                rho=np.nan,
                accepted=False,
                factorizations=counter.factorizations,
                wall_s=wall_s,
                x=state.x.copy(),
            )
        )
        state.converged = state.chi <= problem.criticality_tol
        return state

    trial = evaluate_full(problem, inner.x, counter)
    rho = (state.evaluation.value - trial.value) / predicted
    accepted = rho >= config.eta1

    if rho >= config.eta2:
        state.delta = min(config.growth * state.delta, config.delta_max)
    elif rho < config.eta1:
        state.delta *= config.gamma2

    vgap = ggap = np.nan
    if accepted:
        state.x = inner.x.copy()
        state.evaluation = trial
        state.model = build_reduced_model(problem, trial)
        state.gradient = state.model.gradient
        state.chi = criticality(problem.box, state.x, state.gradient)
        if state.models is not None:
            state.models.append(state.model)
        vgap, ggap = _model_gaps(
            problem, state.model, state.evaluation, state.gradient, state.x
        )

    state.history.append(
        OuterRecord(
            k=state.k,
            value=state.evaluation.value,
            frequencies=state.evaluation.frequencies.copy(),
            chi=state.chi,
            delta=state.delta,
            rho=float(rho),
            accepted=accepted,
            factorizations=counter.factorizations,
            wall_s=wall_s,
            x=state.x.copy(),
            step_norm=step_norm,
            model_value_gap=vgap,
            model_grad_gap=ggap,
        )
    )
    state.converged = state.chi <= problem.criticality_tol
    return state


def solve(problem, x0=None, config=None, counter=None, keep_models=False):
    """Minimize the updating objective from x0 (physical units).

    The problem is rescaled so x0 maps to the all-ones vector; radii,
    tolerances, and the returned history are in those scaled
    coordinates. Returns a SolveResult with the final parameters mapped
    back to physical units.
    """
    config = config or TrustRegionConfig()
    counter = counter if counter is not None else EvalCounter()
    reference = np.asarray(
        problem.box.midpoint() if x0 is None else x0, dtype=np.float64
    )
    if np.any(reference <= 0.0):
        raise ValueError("starting point must be strictly positive for scaling")
    if not problem.box.contains(reference):
        raise ValueError("starting point lies outside the feasible box")
    scaled = problem.scaled_by(reference)
    t0 = time.perf_counter()
    state = start_state(
        scaled,
        np.ones(len(reference)),
        config,
        counter,
        keep_models=keep_models,
    )
    n_models = 1
    while not state.converged and state.k < config.max_outer:
        before = state.model
        outer_iterate(
            state,
            scaled,
            config,
            counter,
            wall_s=time.perf_counter() - t0,
        )
        if state.model is not before:
            n_models += 1
    return SolveResult(
        x=state.x * reference,
        x_scaled=state.x.copy(),
        value=state.evaluation.value,
        frequencies=state.evaluation.frequencies.copy(),
        chi=state.chi,
        converged=state.converged,
        n_outer=state.k,
        n_models=n_models,
        counter=counter,
        history=state.history,
        reference=reference,
        models=state.models,
    )
