"""Reference strategies: analytic-gradient and finite-difference descent."""

import numpy as np
import pytest

from femupdate import (
    EvalCounter,
    NotPositiveDefiniteError,
    UpdatingProblem,
    solve,
    solve_baseline,
)

from conftest import ARCH_FAR_START, ARCH_TRUE


def test_strategy_name_validation(arch_problem):
    with pytest.raises(ValueError):
        solve_baseline(arch_problem, ARCH_FAR_START, "BB")


def test_start_validation(arch_problem):
    with pytest.raises(ValueError):
        solve_baseline(arch_problem, np.array([100.0, 1100.0, 1100.0]), "AD")


def test_analytic_descent_recovers_arch(arch_problem):
    counter = EvalCounter()
    result = solve_baseline(arch_problem, ARCH_FAR_START, "AD", counter=counter)
    assert result.converged
    assert result.chi <= arch_problem.criticality_tol
    assert np.all(np.abs(result.x - ARCH_TRUE) / ARCH_TRUE <= 1e-3)
    # one factorization per accepted point, no extra gradient solves
    assert counter.factorizations >= result.iterations


def test_finite_difference_gradient_costs_extra_evaluations(arch_body):
    pencil, box, true, clean = arch_body
    problem = UpdatingProblem(pencil, box, measured=clean)
    mid = box.midpoint()
    c_ad = EvalCounter()
    r_ad = solve_baseline(problem, mid, "AD", counter=c_ad)
    c_fd = EvalCounter()
    r_fd = solve_baseline(problem, mid, "A", counter=c_fd)
    assert r_ad.converged
    # forward differences pay n_parameters extra evaluations per gradient
    assert c_fd.factorizations > c_ad.factorizations
    # gradient noise keeps A from certifying stationarity here, but it
    # still lands on the right parameters
    assert r_fd.value <= 1e-6
    assert np.all(np.abs(r_fd.x - true) / true <= 1e-2)
    assert np.all(np.abs(r_ad.x - true) / true <= 1e-3)


def test_status_is_converged_only_when_chi_confirms_it(arch_body):
    pencil, box, _, clean = arch_body
    problem = UpdatingProblem(pencil, box, measured=clean)
    result = solve_baseline(problem, box.midpoint(), "A")
    # the solver's forward-difference test passes, the analytic chi
    # (about 4.5e-4 against 1e-4) does not
    assert not result.converged
    assert result.chi > problem.criticality_tol
    assert result.status == "unconfirmed"


def test_forward_differences_factor_every_point_once(arch_problem, monkeypatch):
    import femupdate.baselines as baselines

    exact = baselines.evaluate_full
    points = []

    def recorded(problem, x, counter=None):
        points.append(np.asarray(x).tobytes())
        return exact(problem, x, counter)

    monkeypatch.setattr(baselines, "evaluate_full", recorded)
    counter = EvalCounter()
    result = solve_baseline(arch_problem, None, "A", counter=counter)
    assert result.converged
    # the final point reuses its evaluation from the line search
    assert len(set(points)) == len(points) == counter.factorizations


def test_analytic_gradient_is_computed_once_per_point(arch_problem, monkeypatch):
    import femupdate.baselines as baselines

    exact = baselines.full_gradient
    points = []

    def recorded(problem, evaluation):
        points.append(evaluation.x.tobytes())
        return exact(problem, evaluation)

    monkeypatch.setattr(baselines, "full_gradient", recorded)
    result = solve_baseline(arch_problem, None, "AD")
    assert result.converged
    # the final criticality reuses the line search's gradient
    assert len(points) == len(set(points))


def test_strategies_agree_with_trust_region(arch_body):
    pencil, box, true, clean = arch_body
    problem = UpdatingProblem(pencil, box, measured=clean)
    mid = box.midpoint()
    r_rm = solve(problem, x0=mid)
    r_ad = solve_baseline(problem, mid, "AD")
    assert abs(r_rm.value - r_ad.value) <= 1e-6
    assert np.allclose(r_rm.x, r_ad.x, rtol=1e-3)


def test_indefinite_trial_point_shortens_the_line_search(arch_soft_pier, monkeypatch):
    import femupdate.baselines as baselines

    problem, truth = arch_soft_pier
    exact = baselines.evaluate_full
    failed = []

    def recording(problem, x, counter=None):
        try:
            return exact(problem, x, counter)
        except NotPositiveDefiniteError:
            failed.append(x)
            raise

    monkeypatch.setattr(baselines, "evaluate_full", recording)
    result = solve_baseline(problem, problem.box.midpoint(), "AD")
    # the first line search reaches the pier's zero modulus, then shortens
    assert failed and failed[0][0] == 0.0
    assert result.converged
    assert np.all(np.abs(result.x - truth) / truth <= 1e-3)
