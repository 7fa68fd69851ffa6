"""Acceptance gate: one test per advertised guarantee of the package.

Run with -v to get one pass/fail line per guarantee. Each test pins
the tolerances the package documents; where a runtime budget is part
of the guarantee it is asserted too.
"""

import csv
import time

import numpy as np
import scipy.linalg as sla

from femupdate import (
    EvalCounter,
    UpdatingProblem,
    build_reduced_model,
    evaluate_full,
    evaluate_reduced,
    frequencies_from_eigenvalues,
    lanczos_smallest,
    load_config,
    reduced_gradient,
    full_gradient,
    solve,
    solve_baseline,
    weighted_mismatch,
)
from femupdate.cli import main
from femupdate.studies import run_noise_study

from conftest import (
    ARCH_FAR_START,
    ARCH_TRUE,
    VAULT_TRUE,
    dense_smallest,
    random_spd_pencil,
)


def dense_value(problem, x):
    """Objective via the dense eigensolver (iteration-noise-free oracle)."""
    lam = dense_smallest(problem.pencil, x, problem.s)
    f = frequencies_from_eigenvalues(lam)
    return weighted_mismatch(f, problem.measured, problem.weights)


ARCH_BODY_CONFIG = """
[run]
benchmark = arch
modes = 5
strategy = RM
output_dir = {out}

[material.arch]
free = young density
young_bounds = 1000 9000
density_bounds = 1000 3000

[material.pier_left]
free =

[material.pier_right]
free =

[targets]
mode = generate
values = 3250 1800

[noise_study]
deltas = 1e-4 1e-3 1e-2 1e-1 1
trials = 5
seed = 2024
"""


def test_eigensolver_matches_dense_oracle_on_random_pencils():
    """20 random SPD pencils, n in [50, 500], s = 5: rel error <= 1e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(50, 501))
        bandwidth = int(rng.integers(3, 8))
        k, m = random_spd_pencil(n, rng, bandwidth)
        res = lanczos_smallest(k, m, 5, tol=1e-8, seed=trial)
        oracle = sla.eigh(
            k.to_dense(), m.to_dense(), eigvals_only=True, subset_by_index=[0, 4]
        )
        rel = np.max(np.abs(res.eigenvalues - oracle) / np.abs(oracle))
        assert rel <= 1e-5, "pencil %d (n=%d): rel error %g" % (trial, n, rel)
    assert time.perf_counter() - t0 < 30.0


def test_gradients_match_central_differences(arch, arch_targets):
    """Analytic and surrogate gradients vs central FD: rel error <= 1e-6."""
    t0 = time.perf_counter()
    _, _, pencil, box, _ = arch
    problem = UpdatingProblem(
        pencil, box, measured=arch_targets, lanczos_tol=1e-8
    )
    rng = np.random.default_rng(42)

    # full gradient at 5 random feasible points, FD on the dense objective
    for _ in range(5):
        t = rng.uniform(0.25, 0.75, size=len(box))
        x = box.lower + t * (box.upper - box.lower)
        ev = evaluate_full(problem, x)
        grad = full_gradient(problem, ev)
        fd = np.zeros_like(grad)
        for j in range(x.size):
            h = 1e-4 * x[j]
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (dense_value(problem, xp) - dense_value(problem, xm)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(fd)
        assert rel <= 1e-6, "full gradient rel error %g at %s" % (rel, x)

    # surrogate gradient at 5 points near its expansion point
    scaled = problem.scaled_by(ARCH_TRUE)
    ones = np.ones(len(box))
    ev = evaluate_full(scaled, ones)
    model = build_reduced_model(scaled, ev)
    for _ in range(5):
        x = ones + rng.uniform(-0.03, 0.03, size=ones.size)
        grad = reduced_gradient(model, x)
        fd = np.zeros_like(grad)
        for j in range(x.size):
            h = 1e-5
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (evaluate_reduced(model, xp)[0] - evaluate_reduced(model, xm)[0]) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(fd)
        assert rel <= 1e-6, "surrogate gradient rel error %g" % rel
    assert time.perf_counter() - t0 < 60.0


def test_surrogate_is_first_order_consistent(arch_problem):
    """Value/gradient agreement at expansion points; O(t^2) remainder."""
    # agreement at every outer iterate of an actual run
    result = solve(arch_problem, x0=ARCH_FAR_START)
    for rec in result.history:
        assert np.isfinite(rec.model_value_gap)
        assert rec.model_value_gap <= 1e-10 * max(1.0, rec.value)
        assert rec.model_grad_gap <= 1e-8

    # remainder halves like a second-order term along a fixed direction
    scaled = arch_problem.scaled_by(ARCH_FAR_START)
    ones = np.ones(3)
    ev = evaluate_full(scaled, ones)
    model = build_reduced_model(scaled, ev)
    d = np.random.default_rng(7).normal(size=3)
    d /= np.linalg.norm(d)
    steps = [0.04, 0.02, 0.01, 0.005]
    remainders = []
    for t in steps:
        x = ones + t * d
        phi = dense_value(scaled, x)
        phi_r, _ = evaluate_reduced(model, x)
        remainders.append(abs(phi - phi_r))
    for big, small in zip(remainders, remainders[1:]):
        ratio = big / small
        assert 2.5 <= ratio <= 6.0, "remainder ratios %s" % (remainders,)


def test_arch_round_trip_recovers_parameters(arch_problem):
    """Far start to (5000, 2200, 4800) in <= 20 iterations, error <= 1e-4."""
    t0 = time.perf_counter()
    result = solve(arch_problem, x0=ARCH_FAR_START)
    elapsed = time.perf_counter() - t0
    assert result.converged
    assert result.n_outer <= 20
    rel = np.abs(result.x - ARCH_TRUE) / ARCH_TRUE
    assert np.max(rel) <= 1e-4, "relative errors %s" % rel
    assert elapsed < 120.0


def test_vault_round_trip_recovers_parameters(vault_problem):
    """Seven parameters from the box midpoint: <= 10 iterations, mean <= 5%."""
    t0 = time.perf_counter()
    result = solve(vault_problem, x0=vault_problem.box.midpoint())
    elapsed = time.perf_counter() - t0
    assert result.converged
    assert result.n_outer <= 10
    rel = np.abs(result.x - VAULT_TRUE) / VAULT_TRUE
    assert np.mean(rel) <= 0.05, "relative errors %s" % rel
    assert elapsed < 600.0


def test_noise_scales_linearly_into_parameter_error(tmp_path):
    """Median error vs noise level: log-log slope in [0.8, 1.2], in band."""
    t0 = time.perf_counter()
    cfg = tmp_path / "noise.ini"
    cfg.write_text(ARCH_BODY_CONFIG.format(out=tmp_path / "out"))
    setup = load_config(str(cfg))
    deltas, medians, slope = run_noise_study(setup)
    assert 0.8 <= slope <= 1.2, "slope %g, medians %s" % (slope, medians)
    with open(tmp_path / "out" / "noise_study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(deltas) * setup.noise_trials
    for row in rows:
        delta = float(row["delta"])
        err = float(row["max_rel_error"])
        if delta >= 1e-3:
            assert 0.1 * delta <= err <= 10.0 * delta, (
                "delta %g error %g outside band" % (delta, err)
            )
    assert time.perf_counter() - t0 < 900.0


def test_relative_weights_balance_frequency_errors(arch_body):
    """With unmatchable targets, 1/f weights cut the low-mode error."""
    pencil, box, true, clean = arch_body
    factors = np.array([0.96, 1.03, 0.99, 1.02, 0.98])
    targets = np.sort(clean * factors)
    mid = box.midpoint()
    worst = {}
    for mode in ("uniform", "relative"):
        problem = UpdatingProblem(pencil, box, measured=targets, weights=mode)
        result = solve(problem, x0=mid)
        rel = np.abs(result.frequencies[:2] - targets[:2]) / targets[:2]
        worst[mode] = np.max(rel)
    assert worst["relative"] < worst["uniform"], worst


def test_strategy_costs_order_as_rm_ad_a(arch_problem, vault_problem):
    """Factorizations: RM < AD < A; all converge to the same minimum."""
    runs = [
        (arch_problem, ARCH_FAR_START),
        (vault_problem, vault_problem.box.midpoint()),
    ]
    for problem, start in runs:
        counters = {s: EvalCounter() for s in ("RM", "AD", "A")}
        rm = solve(problem, x0=start, counter=counters["RM"])
        ad = solve_baseline(problem, start, "AD", counter=counters["AD"])
        a = solve_baseline(problem, start, "A", counter=counters["A"])
        facts = {s: c.factorizations for s, c in counters.items()}
        assert facts["RM"] < facts["AD"] < facts["A"], facts
        for r in (rm, ad, a):
            assert r.chi <= 1e-4, "chi %g (facts %s)" % (r.chi, facts)
        values = [rm.value, ad.value, a.value]
        assert max(values) - min(values) <= 1e-6, values


def test_identical_runs_produce_identical_convergence_files(tmp_path):
    """Bitwise-equal convergence.csv from two runs of the same config."""
    cfg = tmp_path / "arch.ini"
    cfg.write_text(
        "[run]\nbenchmark = arch\nmodes = 5\nstrategy = RM\n"
        "start = 2000 1100 1100\noutput_dir = %s\n\n"
        "[targets]\nmode = generate\nvalues = 5000 2200 4800\n" % (tmp_path / "a")
    )
    assert main(["update", str(cfg)]) == 0
    assert main(["update", str(cfg), "--output-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "convergence.csv").read_bytes()
    second = (tmp_path / "b" / "convergence.csv").read_bytes()
    assert first == second and len(first) > 0
