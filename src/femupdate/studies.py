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
from .errors import ConfigError
from .objective import EvalCounter, evaluate_full
from .reduced import build_reduced_model
from .trustregion import solve

STRATEGIES = ("RM", "AD", "A")  # the supported ones, in comparison.csv's order


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
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


def run_strategy(setup, strategy, problem=None):
    """Solve ``problem`` (the configured one by default) with one strategy
    from the configured start: the one place where a command solves.

    Returns (result, iterations, status, seconds): a SolveResult (RM) or a
    BaselineResult (A, AD), whose ``counter`` counts this solve alone, the
    outer or solver iterations, the stopping status and the wall seconds.
    """
    problem = setup.problem if problem is None else problem
    counter = EvalCounter()
    t0 = time.perf_counter()
    if strategy == "RM":
        result = solve(problem, x0=setup.start, counter=counter, max_outer=setup.max_outer)
        iterations, status = result.n_outer, "converged" if result.converged else "maxiter"
    else:
        result = solve_baseline(problem, setup.start, strategy, counter=counter,
                                max_iter=setup.max_outer * 10)
        iterations, status = result.iterations, result.status
    return result, iterations, status, time.perf_counter() - t0


def run_update(setup):
    """Run one model update and write convergence.csv plus summary.txt.

    Returns ``run_strategy``'s result, iterations and status.
    """
    os.makedirs(setup.output_dir, exist_ok=True)
    result, iterations, status, wall = run_strategy(setup, setup.strategy)
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
        ("factorizations", str(result.counter.factorizations)),
        ("wall_s", _fmt(wall) if setup.record_wall_time else _fmt(0.0)),
    ]
    for name, value in zip(setup.problem.pencil.names, result.x):
        lines.append(("parameter:%s" % name, _fmt(value)))
    for i, f in enumerate(result.frequencies):
        lines.append(("frequency:%d" % (i + 1), _fmt(f)))
    for i, f in enumerate(setup.problem.measured):
        lines.append(("target:%d" % (i + 1), _fmt(f)))
    if setup.true_values is not None:
        err = np.abs(result.x - setup.true_values) / np.abs(setup.true_values)
        for name, e in zip(setup.problem.pencil.names, err):
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
    perturbed multiplicatively, the model is updated with ``[run]
    strategy`` from the configured start with relative weights, whatever
    ``weight_mode`` the setup holds, and the largest relative parameter
    error against the known true values is recorded. Writes
    noise_study.csv (one row per trial) and noise_summary.txt with
    per-level medians and the log-log slope fitted through them (nan
    with fewer than two levels). Measured targets, or generated ones with
    ``[targets] noise``, are a ConfigError raised before any file.

    Returns (deltas, medians, slope).
    """
    if setup.true_values is None:  # the study measures error against them
        raise ConfigError("noise-study needs mode = generate (known true values)",
                          "targets", "mode")
    if setup.target_noise > 0.0:  # the study's own noise would stack on it
        raise ConfigError("noise-study adds its own noise to clean targets, needs 0, got %r"
                          % setup.target_noise, "targets", "noise")
    os.makedirs(setup.output_dir, exist_ok=True)

    clean = setup.problem.measured
    rows = []
    errors = np.zeros((setup.noise_deltas.size, setup.noise_trials))
    for a, delta in enumerate(setup.noise_deltas):
        for b in range(setup.noise_trials):
            rng = np.random.default_rng([setup.noise_seed, a, b])
            noisy = perturbed_targets(clean, float(delta), rng)
            problem = replace(setup.problem, measured=noisy, weights="relative")
            result, iterations, _, _ = run_strategy(setup, setup.strategy, problem)
            err = float(
                np.max(np.abs(result.x - setup.true_values) / np.abs(setup.true_values))
            )
            errors[a, b] = err
            rows.append([_fmt(float(delta)), str(b), _fmt(err), _fmt(result.converged),
                         str(iterations)])
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

    The strategies share their start's Lanczos run and model data; these
    are computed before them, so no row counts them, whatever the order.

    Returns {strategy: result} for the supported strategies.
    """
    os.makedirs(setup.output_dir, exist_ok=True)
    scaled, reference = setup.problem.scaled_from(setup.start)
    build_reduced_model(scaled, evaluate_full(scaled, np.ones(reference.size)))
    results = {}
    rows = []
    for strategy in STRATEGIES:
        result, iterations, status, wall = run_strategy(setup, strategy)
        results[strategy] = result
        rows.append(
            [
                strategy,
                status,
                _fmt(result.converged),
                str(iterations),
                str(result.counter.factorizations),
                str(result.counter.lanczos_runs),
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
