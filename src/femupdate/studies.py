"""High-level runs: single update, noise sweep, strategy comparison.

Every run writes plain CSV and key=value text files. Floats are
formatted with repr() so rerunning a deterministic configuration
reproduces the output byte for byte (wall-clock columns are written as
0.0 unless real times were requested).
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import replace

import numpy as np

from .baselines import solve_baseline
from .objective import EvalCounter
from .trustregion import solve

STRATEGIES = ("RM", "AD", "A")  # the supported ones, in comparison.csv's order


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_summary(path, lines):
    with open(path, "w", newline="") as fh:
        for key, value in lines:
            fh.write("%s = %s\n" % (key, value))


def run_strategy(setup, strategy, counter):
    """Solve the configured problem with one strategy.

    Returns (result, iterations, status): a SolveResult (RM) or a
    BaselineResult (A, AD), the outer or solver iterations, and the
    stopping status.
    """
    if strategy == "RM":
        result = solve(setup.problem, x0=setup.start, config=setup.tr_config,
                       counter=counter)
        return result, result.n_outer, "converged" if result.converged else "maxiter"
    result = solve_baseline(
        setup.problem, setup.start, strategy, counter=counter,
        max_iter=setup.tr_config.max_outer * 10,
    )
    return result, result.iterations, result.status


def run_update(setup):
    """Run one model update and write convergence.csv plus summary.txt.

    Returns ``run_strategy``'s (result, iterations, status).
    """
    os.makedirs(setup.output_dir, exist_ok=True)
    counter = EvalCounter()
    t0 = time.perf_counter()
    result, iterations, status = run_strategy(setup, setup.strategy, counter)
    wall = time.perf_counter() - t0
    if setup.strategy == "RM":  # one row per outer iteration
        header = ["k", "phi", *("f%d" % (i + 1) for i in range(setup.problem.s)),
                  "chi", "delta", "rho", "accepted", "factorizations", "wall_s"]
        _write_csv(os.path.join(setup.output_dir, "convergence.csv"), header, [
            [str(rec.k), _fmt(rec.value), *map(_fmt, rec.frequencies), _fmt(rec.chi),
             _fmt(rec.delta), _fmt(rec.rho), _fmt(rec.accepted), str(rec.factorizations),
             _fmt(rec.wall_s if setup.record_wall_time else 0.0)]
            for rec in result.history
        ])

    lines = [
        ("benchmark", setup.benchmark),
        ("strategy", setup.strategy),
        ("converged", "true" if result.converged else "false"),
        ("iterations", str(iterations)),
        ("objective", _fmt(result.value)),
        ("criticality", _fmt(result.chi)),
        ("factorizations", str(counter.factorizations)),
        ("wall_s", _fmt(wall) if setup.record_wall_time else _fmt(0.0)),
    ]
    for name, value in zip(setup.parameter_names, result.x):
        lines.append(("parameter:%s" % name, _fmt(value)))
    for i, f in enumerate(result.frequencies):
        lines.append(("frequency:%d" % (i + 1), _fmt(f)))
    for i, f in enumerate(setup.problem.measured):
        lines.append(("target:%d" % (i + 1), _fmt(f)))
    if setup.true_values is not None:
        err = np.abs(result.x - setup.true_values) / np.abs(setup.true_values)
        for name, e in zip(setup.parameter_names, err):
            lines.append(("rel_error:%s" % name, _fmt(e)))
        lines.append(("rel_error:max", _fmt(float(err.max()))))
        lines.append(("rel_error:mean", _fmt(float(err.mean()))))
    write_summary(os.path.join(setup.output_dir, "summary.txt"), lines)
    return result, iterations, status


def perturbed_targets(clean, delta, rng):
    """Multiplicative uniform noise on each target, re-sorted ascending."""
    factors = 1.0 + delta * rng.uniform(-1.0, 1.0, clean.size)
    return np.sort(clean * factors)


def run_noise_study(setup):
    """Parameter error versus target noise level.

    For each noise level delta and each trial, the clean targets are
    perturbed multiplicatively, the model is updated from the
    configured start with relative weights, whatever ``weight_mode`` the
    setup holds, and the largest relative parameter error against the
    known true values is recorded. Writes noise_study.csv (one row
    per trial) and noise_summary.txt with per-level medians and the
    log-log slope fitted through them (nan with fewer than two levels).

    Returns (deltas, medians, slope).
    """
    if setup.true_values is None:
        raise ValueError("noise study needs generated targets (known true values)")
    os.makedirs(setup.output_dir, exist_ok=True)

    clean = setup.problem.measured
    rows = []
    errors = np.zeros((setup.noise_deltas.size, setup.noise_trials))
    for a, delta in enumerate(setup.noise_deltas):
        for b in range(setup.noise_trials):
            rng = np.random.default_rng([setup.noise_seed, a, b])
            noisy = perturbed_targets(clean, float(delta), rng)
            problem = replace(setup.problem, measured=noisy, weights="relative")
            result = solve(problem, x0=setup.start, config=setup.tr_config)
            err = float(
                np.max(np.abs(result.x - setup.true_values) / np.abs(setup.true_values))
            )
            errors[a, b] = err
            rows.append([_fmt(float(delta)), str(b), _fmt(err), _fmt(result.converged),
                         str(result.n_outer)])
    _write_csv(os.path.join(setup.output_dir, "noise_study.csv"),
               ["delta", "trial", "max_rel_error", "converged", "iterations"], rows)

    medians = np.median(errors, axis=1)
    slope = np.nan  # a single noise level has no slope
    if np.unique(setup.noise_deltas).size > 1:
        slope = float(
            np.polyfit(np.log10(setup.noise_deltas), np.log10(medians), 1)[0]
        )
    lines = [("trials", str(setup.noise_trials)), ("slope", _fmt(slope))]
    for delta, med in zip(setup.noise_deltas, medians):
        lines.append(("median:%s" % _fmt(float(delta)), _fmt(float(med))))
    write_summary(os.path.join(setup.output_dir, "noise_summary.txt"), lines)
    return setup.noise_deltas, medians, slope


def run_strategy_comparison(setup):
    """Run the same update with each strategy and tabulate the cost.

    Writes comparison.csv with one row per strategy: factorization and
    Lanczos counts, iterations, final objective and criticality, and
    real wall/assembly seconds (these columns are honest timings, so
    the file is not byte-reproducible across runs). The BB row is
    emitted with status=unsupported and no numbers.

    Returns {strategy: result} for the supported strategies.
    """
    os.makedirs(setup.output_dir, exist_ok=True)
    results = {}
    rows = []
    for strategy in STRATEGIES:
        counter = EvalCounter()
        t0 = time.perf_counter()
        result, iterations, status = run_strategy(setup, strategy, counter)
        wall = time.perf_counter() - t0
        results[strategy] = result
        rows.append(
            [
                strategy,
                status,
                _fmt(result.converged),
                str(iterations),
                str(counter.factorizations),
                str(counter.lanczos_runs),
                _fmt(result.value),
                _fmt(result.chi),
                _fmt(wall),
                _fmt(setup.assembly_seconds),
            ]
        )
    rows.append(["BB", "unsupported", "", "", "", "", "", "", "", ""])
    _write_csv(os.path.join(setup.output_dir, "comparison.csv"), [
        "strategy", "status", "converged", "iterations", "factorizations",
        "lanczos_runs", "objective", "criticality", "wall_s", "assembly_s",
    ], rows)
    return results
