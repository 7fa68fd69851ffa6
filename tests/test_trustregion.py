"""Outer trust-region loop: acceptance rules, radius updates, model
consistency at iterates, and the factorization budget."""

import numpy as np
import pytest

from femupdate import (
    ClusteredEigenvaluesError,
    EvalCounter,
    TrustRegionConfig,
    UpdatingProblem,
    MaxIterationsError,
    NotPositiveDefiniteError,
    solve,
)

from conftest import ARCH_FAR_START, ARCH_TRUE


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
        if rec.accepted:  # k = 0 included: a new model was built here
            assert rec.model_value_gap <= 1e-10 * max(1.0, rec.value)
            assert rec.model_grad_gap <= 1e-8
        else:
            assert np.isnan(rec.model_value_gap) and np.isnan(rec.model_grad_gap)


def test_models_rebuilt_only_on_acceptance(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    accepted = sum(1 for rec in result.history[1:] if rec.accepted)
    assert result.n_models == 1 + accepted


def test_solve_scales_back_to_physical_units(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    assert np.array_equal(result.reference, ARCH_FAR_START)
    assert np.array_equal(result.x, result.history[-1].x * ARCH_FAR_START)
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


def test_critical_start_takes_no_step(arch_problem):
    first = solve(arch_problem)
    assert first.converged
    counter = EvalCounter()
    result = solve(arch_problem, x0=first.x, counter=counter)
    # the start is already critical: no trial point is factored
    assert result.converged and result.chi <= arch_problem.criticality_tol
    assert result.n_outer == 0 and len(result.history) == 1
    assert counter.factorizations == 1
    assert result.n_models == 1


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


def test_lanczos_failure_at_trial_point_rejects_the_step(arch_problem, monkeypatch):
    import femupdate.trustregion as trustregion

    exact = trustregion.evaluate_full
    calls = []

    def first_trial_fails(problem, x, counter=None):
        calls.append(x)
        if len(calls) == 2:  # the first trial point, after the start
            counter.factorizations += 1
            counter.lanczos_runs += 1
            raise MaxIterationsError("basis cap reached")
        return exact(problem, x, counter)

    monkeypatch.setattr(trustregion, "evaluate_full", first_trial_fails)
    config = TrustRegionConfig()
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, config=config, counter=counter)
    assert result.converged

    start, failed = result.history[:2]
    assert not failed.accepted and failed.reason == "MaxIterationsError"
    assert np.isnan(failed.rho) and failed.step_norm > 0.0
    assert failed.value == start.value and np.array_equal(failed.x, start.x)
    assert np.isclose(failed.delta, start.delta * config.gamma2)
    assert failed.factorizations == 2

    reasons = {"", "no_decrease", "low_ratio", "MaxIterationsError"}
    assert all(rec.reason in reasons for rec in result.history)
    assert all((rec.reason == "") == rec.accepted for rec in result.history)
    trials = sum(1 for rec in result.history[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == 1 + trials


def test_clustered_model_at_trial_point_rejects_the_step(arch_problem, monkeypatch):
    import femupdate.trustregion as trustregion

    exact = trustregion.build_reduced_model
    calls = []

    def first_trial_clustered(problem, evaluation):
        calls.append(evaluation.x)
        if len(calls) == 2:  # the first accepted trial point, after the start
            raise ClusteredEigenvaluesError("leading eigenvalues coincide")
        return exact(problem, evaluation)

    monkeypatch.setattr(trustregion, "build_reduced_model", first_trial_clustered)
    config = TrustRegionConfig()
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, config=config, counter=counter)
    assert result.converged

    hist = result.history
    clustered = [i for i, rec in enumerate(hist) if rec.reason == "ClusteredEigenvaluesError"]
    assert len(clustered) == 1
    before, failed = hist[clustered[0] - 1], hist[clustered[0]]
    assert not failed.accepted
    assert failed.rho >= config.eta1 and failed.step_norm > 0.0
    # the state is the one before the step: point, value and model
    assert failed.value == before.value and np.array_equal(failed.x, before.x)
    assert np.isnan(failed.model_value_gap) and np.isnan(failed.model_grad_gap)
    assert np.isclose(failed.delta, before.delta * config.gamma2)
    assert result.n_models == 1 + sum(1 for rec in hist[1:] if rec.accepted)
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == 1 + trials


def test_records_carry_the_inner_solve(arch_problem, monkeypatch):
    import femupdate.trustregion as trustregion

    exact = trustregion.minimize_box
    inner = []

    def recorded(*args, **kwargs):
        assert kwargs["hess"] is not None  # projected Newton on the surrogate
        inner.append(exact(*args, **kwargs))
        return inner[-1]

    monkeypatch.setattr(trustregion, "minimize_box", recorded)
    result = solve(arch_problem, x0=ARCH_FAR_START)
    start = result.history[0]
    assert start.inner_iterations == 0 and start.inner_status == ""
    assert [(rec.inner_iterations, rec.inner_status) for rec in result.history[1:]] == [
        (res.iterations, res.status) for res in inner
    ]
    assert all(res.iterations >= 1 for res in inner)


def test_indefinite_trial_point_rejects_the_step(arch_soft_pier):
    # from the midpoint a unit radius reaches the pier's zero modulus
    problem, truth = arch_soft_pier
    config = TrustRegionConfig(delta0=1.0)
    counter = EvalCounter()
    result = solve(problem, config=config, counter=counter)
    assert result.converged
    assert np.all(np.abs(result.x - truth) / truth <= 1e-4)

    hist = result.history
    failed = [rec for rec in hist if rec.reason == "NotPositiveDefiniteError"]
    assert failed and failed[0].k == 1
    for rec in failed:
        before = hist[rec.k - 1]
        assert not rec.accepted and np.isnan(rec.rho) and rec.step_norm > 0.0
        assert rec.value == before.value and np.array_equal(rec.x, before.x)
        assert np.isclose(rec.delta, before.delta * config.gamma2)
    # the failed factorizations are counted
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == 1 + trials
