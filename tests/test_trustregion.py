"""Outer trust-region loop: acceptance rules, radius updates, model
consistency at iterates, the factorization budget, and solves that
share their start's Lanczos run through the pencil."""

import copy
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femupdate import (
    ClusteredEigenvaluesError,
    EvalCounter,
    FeasibleBox,
    ParametricPencil,
    UpdatingProblem,
    MaxIterationsError,
    NotPositiveDefiniteError,
    assemble_parametric,
    benchmarks,
    build_reduced_model,
    evaluate_full,
    frequencies_from_eigenvalues,
    objective,
    solve,
    trustregion,
)
from femupdate.lanczos import lanczos_smallest
from femupdate.reduced import evaluate_reduced_with_gradient

from conftest import ARCH_FAR_START, ARCH_TRUE, dense_smallest, random_spd_pencil


def test_arch_roundtrip_recovers_parameters(arch_problem):
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
    assert result.converged
    assert result.n_outer <= 20
    assert np.all(np.abs(result.x - ARCH_TRUE) / ARCH_TRUE <= 1e-4)
    assert result.chi <= arch_problem.criticality_tol
    assert np.allclose(result.frequencies, arch_problem.measured, rtol=1e-6)


def test_arch_far_start_takes_at_most_ten_factorizations(arch_problem):
    # the exact-in-x surrogate A B^-1 A^T reaches the truth from the far
    # start in 10 factorizations, its first-order expansion took 14; the
    # start is counted once, whether the pencil held it or not
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
    assert result.converged
    assert counter.factorizations - result.history[0].factorizations + 1 <= 10


def test_history_invariants(arch_problem):
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
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
            assert np.isclose(rec.delta, prev.delta * trustregion.GAMMA2)
        elif rec.rho >= trustregion.ETA2:
            assert np.isclose(
                rec.delta, min(trustregion.GROWTH * prev.delta, trustregion.DELTA_MAX)
            )
        else:
            assert np.isclose(rec.delta, prev.delta)

    # one factorization per trial evaluation, plus one for the start
    # unless the pencil already holds it from an earlier solve
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert hist[0].factorizations in (0, 1)
    assert counter.factorizations == hist[0].factorizations + trials
    assert counter.factorizations <= 1 + result.n_outer


def test_model_consistency_gaps_at_iterates(arch_problem):
    result = solve(arch_problem, x0=ARCH_FAR_START)
    for rec in result.history:
        if rec.accepted:  # k = 0 included: a new model was built here
            assert rec.model_value_gap <= 1e-10 * max(1.0, rec.value)
            assert rec.model_grad_gap <= 1e-8
        else:
            assert np.isnan(rec.model_value_gap) and np.isnan(rec.model_grad_gap)


def test_models_rebuilt_only_on_acceptance(arch_problem, monkeypatch):
    build, built = trustregion.build_reduced_model, []
    monkeypatch.setattr(trustregion, "build_reduced_model",
                        lambda *args: built.append(build(*args)) or built[-1])
    result = solve(arch_problem, x0=ARCH_FAR_START)
    accepted = sum(1 for rec in result.history[1:] if rec.accepted)
    assert len(built) == 1 + accepted


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
    result = solve(arch_problem, x0=ARCH_FAR_START, max_outer=2)
    assert not result.converged
    assert result.n_outer == 2
    with pytest.raises(ValueError, match="max_outer must be >= 0"):
        solve(arch_problem, x0=ARCH_FAR_START, max_outer=-1)


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
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
    assert result.converged

    start, failed = result.history[:2]
    assert not failed.accepted and failed.reason == "MaxIterationsError"
    assert np.isnan(failed.rho) and failed.step_norm > 0.0
    assert failed.value == start.value and np.array_equal(failed.x, start.x)
    assert np.isclose(failed.delta, start.delta * trustregion.GAMMA2)
    assert failed.factorizations == start.factorizations + 1

    reasons = {"", "no_decrease", "low_ratio", "MaxIterationsError"}
    hist = result.history
    assert all(rec.reason in reasons for rec in hist)
    assert all((rec.reason == "") == rec.accepted for rec in hist)
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == hist[0].factorizations + trials


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
    counter = EvalCounter()
    result = solve(arch_problem, x0=ARCH_FAR_START, counter=counter)
    assert result.converged

    hist = result.history
    clustered = [i for i, rec in enumerate(hist) if rec.reason == "ClusteredEigenvaluesError"]
    assert len(clustered) == 1
    before, failed = hist[clustered[0] - 1], hist[clustered[0]]
    assert not failed.accepted
    assert failed.rho >= trustregion.ETA1 and failed.step_norm > 0.0
    # the state is the one before the step: point, value and model
    assert failed.value == before.value and np.array_equal(failed.x, before.x)
    assert np.isnan(failed.model_value_gap) and np.isnan(failed.model_grad_gap)
    assert np.isclose(failed.delta, before.delta * trustregion.GAMMA2)
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == hist[0].factorizations + trials


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


def test_indefinite_trial_point_rejects_the_step(arch_soft_pier, monkeypatch):
    # from the midpoint a unit radius reaches the pier's zero modulus, where
    # K(x) is singular; the surrogate refuses such points itself (an
    # indefinite Y^T K Y), so the first inner solve is sent there
    problem, truth = arch_soft_pier
    monkeypatch.setattr(trustregion, "DELTA0", 1.0)
    exact, inner = trustregion.minimize_box, []

    def first_reaches_zero_modulus(fun, grad, x, lower, upper, **kwargs):
        inner.append(exact(fun, grad, x, lower, upper, **kwargs))
        if len(inner) == 1:
            return replace(inner[0], x=np.where(lower == 0.0, 0.0, inner[0].x))
        return inner[-1]

    monkeypatch.setattr(trustregion, "minimize_box", first_reaches_zero_modulus)
    counter = EvalCounter()
    result = solve(problem, counter=counter)
    assert result.converged
    assert np.all(np.abs(result.x - truth) / truth <= 1e-4)

    hist = result.history
    failed = [rec for rec in hist if rec.reason == "NotPositiveDefiniteError"]
    assert failed and failed[0].k == 1
    for rec in failed:
        before = hist[rec.k - 1]
        assert not rec.accepted and np.isnan(rec.rho) and rec.step_norm > 0.0
        assert rec.value == before.value and np.array_equal(rec.x, before.x)
        assert np.isclose(rec.delta, before.delta * trustregion.GAMMA2)
    # the failed factorizations are counted
    trials = sum(1 for rec in hist[1:] if rec.step_norm > 0.0)
    assert counter.factorizations == hist[0].factorizations + trials


def _fresh_arch():
    mesh, materials = benchmarks.benchmark("arch")
    pencil, box, _ = assemble_parametric(mesh, materials)
    return pencil, box


def _trials(result):
    return sum(1 for rec in result.history[1:] if rec.step_norm > 0.0)


def _assert_same_solve(a, b):
    """x, value, frequencies and every history field but wall_s and
    factorizations equal bit for bit."""
    for key in ("x", "value", "frequencies", "chi", "converged", "n_outer"):
        assert np.asarray(getattr(a, key)).tobytes() == np.asarray(getattr(b, key)).tobytes(), key
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        for key, value in vars(ra).items():
            if key not in ("wall_s", "factorizations"):
                assert np.asarray(value).tobytes() == np.asarray(getattr(rb, key)).tobytes(), key


def test_a_second_solve_from_a_start_pays_only_for_its_trials(arch_targets):
    pencil, box = _fresh_arch()
    other = np.sort(arch_targets * np.linspace(0.99, 1.01, arch_targets.size))
    first_counter, counter = EvalCounter(), EvalCounter()
    first = solve(UpdatingProblem(pencil, box, measured=arch_targets), x0=ARCH_FAR_START,
                  counter=first_counter)
    second = solve(UpdatingProblem(pencil, box, measured=other), x0=ARCH_FAR_START,
                   counter=counter)
    assert first.history[0].factorizations == 1
    assert first_counter.factorizations == first_counter.lanczos_runs == 1 + _trials(first)
    assert second.history[0].factorizations == 0
    assert counter.factorizations == counter.lanczos_runs == _trials(second) > 0

    # the same solve on a freshly assembled pencil pays for the start
    alone = solve(UpdatingProblem(_fresh_arch()[0], box, measured=other), x0=ARCH_FAR_START)
    assert alone.history[0].factorizations == 1
    assert alone.counter.factorizations == 1 + _trials(alone)
    _assert_same_solve(second, alone)


@pytest.mark.parametrize("change", ["start", "s", "lanczos_tol", "seed"])
def test_another_start_or_lanczos_setting_pays_for_its_start(arch_targets, change):
    pencil, box = _fresh_arch()
    problem = UpdatingProblem(pencil, box, measured=arch_targets)

    def start_cost(problem, x0=ARCH_FAR_START):
        counter = EvalCounter()
        solve(problem, x0=x0, counter=counter, max_outer=0)  # the start alone
        return counter.factorizations, counter.lanczos_runs

    other = {
        "start": (problem, box.midpoint()),
        "s": (replace(problem, measured=arch_targets[:4], weights="uniform"),),
        "lanczos_tol": (replace(problem, lanczos_tol=1e-6),),
        "seed": (replace(problem, seed=1),),
    }[change]
    assert start_cost(problem) == (1, 1)
    assert start_cost(problem) == (0, 0)
    assert start_cost(*other) == (1, 1)
    assert start_cost(*other) == (0, 0)
    assert start_cost(problem) == (1, 1)  # the pencil holds one start


def test_held_start_data_is_read_only(arch_targets):
    pencil, box = _fresh_arch()
    scaled, reference = UpdatingProblem(pencil, box, measured=arch_targets).scaled_from()
    evaluation = evaluate_full(scaled, np.ones(reference.size))
    model = build_reduced_model(scaled, evaluation)
    assert scaled.pencil is pencil.scaled_by(box.midpoint())
    held = scaled.pencil._start
    assert held["key"] == (5, scaled.lanczos_tol, scaled.seed)
    assert held["hats"][0] is model.s_hats and held["hats"][1] is model.a_hats
    assert held["hats"][2] is model.b_hats
    # the run keeps what later solves read: eigenvalues and tridiagonal
    assert (held["lanczos"].basis, held["lanczos"].solves, held["lanczos"].vectors) == (None,) * 3
    arrays = _held_arrays(held)
    assert len(arrays) == 6
    for a in arrays:
        assert a.shape[0] != pencil.n
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_an_inner_solve_starts_from_the_models_own_evaluation(arch_problem, monkeypatch):
    # the model's build already evaluated the surrogate at x0
    points = []

    def recorded(model, y):
        points.append(np.array_equal(y, model.x0))
        return evaluate_reduced_with_gradient(model, y)

    monkeypatch.setattr(trustregion, "evaluate_reduced_with_gradient", recorded)
    result = solve(arch_problem, x0=ARCH_FAR_START)
    assert result.converged and len(points) > result.n_outer
    assert not any(points)


def _held_arrays(held):
    run = [a for a in vars(held["lanczos"]).values() if a is not None]
    return [*run, *held["dlam"], *held["hats"]]


def _tracked_runs(monkeypatch):
    """Weak references to the Lanczos runs ``evaluate_full`` makes, and the
    number of them still alive as each run starts."""
    runs, alive = [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in runs))
        out = lanczos_smallest(*args, **kwargs)
        runs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(objective, "lanczos_smallest", tracked)
    return runs, alive


def test_an_rm_solve_leaves_no_n_row_array_held(arch_targets, monkeypatch):
    runs, _ = _tracked_runs(monkeypatch)
    pencil, box = _fresh_arch()
    result = solve(UpdatingProblem(pencil, box, measured=arch_targets))
    assert result.history[0].factorizations == 1 and len(runs) > 1
    assert all(ref() is None for ref in runs)  # the start's run included
    held = pencil.scaled_by(result.reference)._start
    assert all(a.shape[0] != pencil.n for a in _held_arrays(held))


def test_no_earlier_run_of_a_solve_is_alive_when_a_trial_runs(arch_targets, monkeypatch):
    # the iterate keeps its value and frequencies, and each trial's run
    # goes once its model is built or its step rejected
    runs, alive = _tracked_runs(monkeypatch)
    pencil, box = _fresh_arch()
    result = solve(UpdatingProblem(pencil, box, measured=arch_targets), x0=ARCH_FAR_START)
    assert result.converged and len(runs) == result.counter.lanczos_runs > 5
    assert alive == [0] * len(runs)


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12)
def test_solves_on_a_shared_pencil_equal_solves_on_a_fresh_one(data, seed):
    # RM solves in any order, from starts that repeat or not, on one pencil
    rng = np.random.default_rng(seed)
    n, p, s = 24, 2, 3
    k0, m0 = random_spd_pencil(n, rng)
    increments = [random_spd_pencil(n, rng) for _ in range(p)]
    pencil = ParametricPencil(k0, m0, *zip(*increments))
    pristine = copy.deepcopy(pencil)
    box = FeasibleBox(np.full(p, 0.5), np.full(p, 2.0))
    points = st.lists(st.floats(0.5, 2.0), min_size=p, max_size=p).map(np.array)
    starts = [data.draw(points), data.draw(points)]
    runs = data.draw(st.lists(st.tuples(st.sampled_from(starts), points), min_size=2,
                              max_size=5))
    def outcome(pencil, start, truth):
        measured = frequencies_from_eigenvalues(dense_smallest(pencil, truth, s))
        # a tolerance tight enough that most solves take steps
        problem = UpdatingProblem(pencil, box, measured=measured, criticality_tol=1e-9)
        try:
            return solve(problem, x0=start, max_outer=8)
        except Exception as exc:  # compared like any other outcome
            return type(exc).__name__

    previous = None
    for start, truth in runs:
        shared = outcome(pencil, start, truth)
        alone = outcome(copy.deepcopy(pristine), start, truth)
        if isinstance(shared, str) or isinstance(alone, str):
            assert shared == alone
        else:
            _assert_same_solve(shared, alone)
            assert alone.history[0].factorizations == 1
            reused = previous is not None and np.array_equal(start, previous)
            assert shared.history[0].factorizations == (0 if reused else 1)
        previous = start
