"""Outer trust-region loop: acceptance rules, radius updates, model
consistency at iterates, and the factorization budget."""

import numpy as np
import pytest

from femupdate import (
    ClusteredEigenvaluesError,
    EvalCounter,
    TrustRegionConfig,
    UpdatingProblem,
    criticality,
    FeasibleBox,
    solve,
)

from conftest import ARCH_FAR_START, ARCH_TRUE


def test_criticality_hand_values():
    box = FeasibleBox([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.5, 0.0])
    g = np.array([2.0, 1.0])
    # projection of x - g clips to (0, 0): distance (0.5, 0)
    assert np.isclose(criticality(box, x, g), 0.5)
    # gradient pointing outward at an active bound contributes nothing
    assert criticality(box, np.array([0.0, 0.0]), np.array([3.0, 5.0])) == 0.0


def test_arch_roundtrip_recovers_parameters(arch_problem):
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
    assert result.converged
    assert result.n_outer <= 20
    assert np.all(np.abs(result.x - ARCH_TRUE) / ARCH_TRUE <= 1e-4)
    assert result.chi <= arch_problem.criticality_tol
    assert np.allclose(result.frequencies, arch_problem.measured, rtol=1e-6)


def test_history_invariants(arch_problem):
    config = TrustRegionConfig()
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, config=config, counter=counter)
    hist = result.history
    assert hist[0].k == 0 and np.isnan(hist[0].rho)
    assert [r.k for r in hist] == list(range(len(hist)))

    # accepted steps strictly decrease the objective; rejected keep it
    for prev, rec in zip(hist, hist[1:]):
        if rec.accepted:
            assert rec.value < prev.value
        else:
            assert rec.value == prev.value

    # radius update rules
    for prev, rec in zip(hist, hist[1:]):
        if not rec.accepted:
            assert np.isclose(rec.delta, prev.delta * config.gamma2)
        elif rec.rho >= config.eta2:
            assert np.isclose(
                rec.delta, min(config.growth * prev.delta, config.delta_max)
            )
        else:
            assert np.isclose(rec.delta, prev.delta)

    # one factorization for the start plus one per trial evaluation
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == 1 + trials
    assert counter.factorizations <= 1 + result.n_outer


def test_model_consistency_gaps_at_iterates(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    for rec in result.history:
        if rec.model_value_gap is not None:
            assert rec.model_value_gap <= 1e-10 * max(1.0, rec.value)
        if rec.model_grad_gap is not None:
            assert rec.model_grad_gap <= 1e-8


def test_models_rebuilt_only_on_acceptance(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    accepted = sum(1 for rec in result.history[1:] if rec.accepted)
    assert result.n_models == 1 + accepted


def test_keep_models_collects_surrogates(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START, keep_models=True)
    assert result.models is not None
    assert len(result.models) == result.n_models
    x0_first = result.models[0].x0
    assert np.allclose(x0_first, np.ones(3))  # scaled expansion point


def test_solve_scales_back_to_physical_units(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    assert np.array_equal(result.reference, ARCH_FAR_START)
    assert np.allclose(result.x, result.x_scaled * ARCH_FAR_START)
    assert result.x.min() > 0


def test_solve_rejects_bad_starts(arch_problem):
    with pytest.raises(ValueError):
        solve(arch_problem, x0=np.array([2000.0, 1100.0, -1.0]))
    with pytest.raises(ValueError):
        solve(arch_problem, x0=np.array([100.0, 1100.0, 1100.0]))  # outside box


def test_max_outer_stops_without_convergence(arch_problem):
    config = TrustRegionConfig(max_outer=2)
    result = solve(arch_problem, x0=ARCH_FAR_START, config=config)
    assert not result.converged
    assert result.n_outer == 2


def test_default_start_is_box_midpoint(arch_problem):
    result = solve(arch_problem)
    assert np.array_equal(result.reference, arch_problem.box.midpoint())
    assert result.converged


def test_wall_time_recorded_in_history(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    # record holds real elapsed seconds; writers zero it unless asked
    assert result.history[0].wall_s == 0.0
    assert all(rec.wall_s >= 0.0 for rec in result.history)
    assert result.history[-1].wall_s > 0.0


def test_clustered_trial_point_shortens_the_inner_step(arch_problem, monkeypatch):
    import femupdate.trustregion as trustregion

    exact = trustregion.evaluate_reduced_with_gradient
    trials = []

    def sometimes_clustered(model, x):
        if not np.array_equal(x, model.x0):
            trials.append(x)
            if len(trials) % 3 == 1:
                raise ClusteredEigenvaluesError("leading reduced eigenvalues coincide")
        return exact(model, x)

    monkeypatch.setattr(trustregion, "evaluate_reduced_with_gradient", sometimes_clustered)
    result = solve(arch_problem)
    assert len(trials) > 3
    assert result.converged
