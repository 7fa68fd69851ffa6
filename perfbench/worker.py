"""One benchmark process: set up a workload, run seeded solves, check each.

Run by ``run.py`` as ``python3 worker.py '<json job>'`` with the
package's ``src`` directory on ``PYTHONPATH`` and BLAS pinned to one
thread. Prints one JSON object as its last line of standard output.

Inputs. The seed drives a scrambled Sobol sequence over the parameter
box; solve i recovers the "true" parameters
``lower + (0.5 + spread * (2 u_i - 1)) * (upper - lower)``, where
``spread`` is the workload's (see WORKLOADS). Each u_i on its own is
uniform on the unit cube, so every true point is uniform on the box of
half-width ``spread`` times each interval around the box midpoint,
while the points of one run are stratified over that box. Target
frequencies come from ``evaluate_full`` at the true point (untimed,
untraced); the program sees only the targets and starts from the box
midpoint, its default.

Warm-up. One untimed RM solve from a separate seeded stream runs
before the timed loop, so library and interpreter first-call costs
land in no timed solve. The per-increment full-matrix cache
(``SparseSymMatrix.to_scipy``) is not warmed by it: ``solve`` and
``solve_baseline`` rescale the pencil on every call, which builds
fresh increment matrices, so every timed solve pays that cost.

Timing. Each set-up and each solve is timed on the wall clock and
also scaled to the reference machine speed (see ``ReferenceClock``).

Check. A solve fails when it raises, when it ends with criticality
above the problem's ``criticality_tol``, or when the largest relative
error of its final frequencies against the targets exceeds FREQ_TOL.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Largest relative error of a solve's final frequencies against its
# targets that counts as recovering the true parameters. Over about 650
# RM solves from the box midpoint to true points at spread 0.25 (see
# WORKLOADS), every solve that ended within 1% of the true parameters
# had at most 3.3e-6, and every solve that ended in another local
# minimum (2-52% parameter error) at least 1.8e-5. AD
# stops at criticality 1e-4 and can end at 1e-5 to 3e-5 within 1% of
# the truth; those solves miss this stated accuracy and count as failed.
# A tolerance of 1e-3 would pass local minima at 1.2e-4 to 8.5e-4.
FREQ_TOL = 1e-5

SETUP_REPS = 7  # set-ups per run; setup_s is their median

# Seconds of one pass of ``reference_kernel`` at the reference machine
# speed: its 10th percentile over 300 passes on the 2-vCPU x86 machine
# the benchmark was written on (Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1, one BLAS thread).
REFERENCE_KERNEL_S = 0.0165
LOG2_MAX_SOLVES = 9  # Sobol points drawn per run: a cap, never reached

# ``spread``: half-width of the box the true points are drawn from, as a
# share of each parameter interval, around the box midpoint the solves
# start from. It is kept narrow enough that no RM solve fails the check,
# so every run counts zero failures. No solve failed in 1024 vault
# solves at spread 0.05, nor in 1139 arch solves at 0.02 (and 632 at
# 0.03). Wider draws stop some solves in another local minimum: 1 of
# 512 vault solves at 0.1 and 7-17% at 0.25. The arch piers are near
# mirror images, so an arch truth has a near-mirror local minimum with
# the two pier moduli swapped; it caught 2 of 63 arch solves at 0.05
# and 13-32% at 0.25. See NOTES.md.
WORKLOADS = {
    "vault-rm": {"structure": "vault", "refine": 1, "modes": 10,
                 "weights": "relative", "strategy": "RM", "spread": 0.05},
    "arch-rm": {"structure": "arch", "refine": 3, "modes": 5,
                "weights": "uniform", "strategy": "RM", "spread": 0.02},
    "arch-ad": {"structure": "arch", "refine": 3, "modes": 5,
                "weights": "uniform", "strategy": "AD", "spread": 0.02},
}


def reference_kernel():
    """A fixed calibration task that does not use the package; returns a timer.

    One pass factors and solves a 4096-unknown 2-D Laplacian with
    SuperLU and runs 60 small dense symmetric eigensolves, the two kinds
    of work the solves spend their time in. Its seconds track the
    machine's current speed.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    side = 64
    ones = np.ones(side)
    lap = sp.diags_array([-ones[1:], 2.0 * ones, -ones[1:]], offsets=[-1, 0, 1])
    eye = sp.eye_array(side)
    a = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
    b = np.ones(a.shape[0])
    d = np.random.default_rng(0).standard_normal((24, 24))
    d = d @ d.T + 24.0 * np.eye(24)

    def seconds():
        t0 = time.perf_counter()
        splu(a, permc_spec="MMD_AT_PLUS_A").solve(b)
        for _ in range(60):
            _, v = sla.eigh(d)
            np.einsum("ij,ij->j", v, d @ v)
        return time.perf_counter() - t0

    return seconds


class ReferenceClock:
    """Scales timed regions to the reference machine speed.

    The reference kernel runs once before the first region and once
    after each; a region's seconds are multiplied by
    REFERENCE_KERNEL_S over the mean kernel time just before and just
    after it. This removes the drift of this shared machine's speed,
    which moves an identical solve by 18% (coefficient of variation)
    from one repetition to the next.
    """

    def __init__(self):
        self._kernel = reference_kernel()
        self._kernel()  # first pass pays one-time costs
        self.samples = [self._kernel()]

    def scale(self, seconds):
        after = self._kernel()
        before = self.samples[-1]
        self.samples.append(after)
        return seconds * REFERENCE_KERNEL_S / (0.5 * (before + after))


def setup(fu, spec, clock):
    """Mesh generation plus assembly, SETUP_REPS times; keeps the last."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        mesh, materials = fu.benchmarks.benchmark(spec["structure"], spec["refine"])
        t1 = time.perf_counter()
        pencil, box, _ = fu.assemble_parametric(mesh, materials)
        t2 = time.perf_counter()
        times.append({"mesh_s": t1 - t0, "assemble_s": t2 - t1, "setup_s": t2 - t0,
                      "ref_s": clock.scale(t2 - t0)})
    return pencil, box, times


def true_points(box, spread, seed, log2_count):
    """2**log2_count seeded true parameter vectors (see module docstring)."""
    from scipy.stats import qmc

    sobol = qmc.Sobol(d=len(box), scramble=True, seed=np.random.default_rng(seed))
    u = sobol.random_base2(log2_count)
    return box.lower + (0.5 + spread * (2.0 * u - 1.0)) * (box.upper - box.lower)


def make_problem(fu, pencil, box, spec, truth):
    probe = fu.UpdatingProblem(pencil, box, measured=np.ones(spec["modes"]),
                               weights=spec["weights"])
    targets = fu.evaluate_full(probe, truth).frequencies
    return fu.UpdatingProblem(pencil, box, measured=targets, weights=spec["weights"])


def run_solve(fu, problem, strategy):
    """(result or None, counter, error type or None, seconds)."""
    counter = fu.EvalCounter()
    t0 = time.perf_counter()
    try:
        if strategy == "RM":
            result = fu.solve(problem, counter=counter)
        else:
            result = fu.solve_baseline(problem, None, strategy, counter=counter)
    except Exception as exc:  # a failed solve is data: count it by type
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return None, counter, type(exc).__name__, seconds
    return result, counter, None, time.perf_counter() - t0


def check(problem, truth, result, error):
    """Per-solve record fields describing the outcome of the check."""
    if error is not None:
        return {"outcome": "raised:" + error, "well_formed": True}
    freq_err = float(np.max(np.abs(result.frequencies - problem.measured) / problem.measured))
    well_formed = bool(
        np.all(np.isfinite(result.x))
        and np.all(np.isfinite(result.frequencies))
        and problem.box.contains(result.x, rtol=1e-12)
    )
    if result.chi > problem.criticality_tol:
        outcome = "criticality"
    elif not freq_err <= FREQ_TOL:
        outcome = "frequency"
    else:
        outcome = "pass"
    digest = hashlib.sha256(result.x.tobytes() + result.frequencies.tobytes())
    record = {
        "outcome": outcome,
        "well_formed": well_formed,
        "chi": float(result.chi),
        "freq_err": freq_err,
        "param_err": float(np.max(np.abs(result.x - truth) / truth)),
        "digest": digest.hexdigest()[:16],
    }
    if hasattr(result, "history"):
        record["outer"] = int(result.n_outer)
        record["accepted"] = sum(1 for rec in result.history[1:] if rec.accepted)
    else:
        record["iterations"] = int(result.iterations)
    return record


def main(job):
    root = Path(__file__).resolve().parent.parent
    import femupdate as fu

    if Path(fu.__file__).resolve().parent != root / "src" / "femupdate":
        raise SystemExit("femupdate imported from %s, not from this checkout" % fu.__file__)
    spec = WORKLOADS[job["workload"]] if "workload" in job else job["spec"]
    spread = spec["spread"]

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(fu)

    clock = ReferenceClock()
    pencil, box, setups = setup(fu, spec, clock)
    truths = true_points(box, spread, job["seed"], LOG2_MAX_SOLVES)[: job.get("max_solves")]

    if tracer is not None:
        tracer.paused = True
    warm_truth = true_points(box, spread, [job["seed"], 1], 0)[0]
    run_solve(fu, make_problem(fu, pencil, box, spec, warm_truth), "RM")

    solves = []
    start = time.perf_counter()
    for i, truth in enumerate(truths):
        if time.perf_counter() - start >= job["seconds"]:
            break
        if tracer is not None:
            tracer.paused = True
        problem = make_problem(fu, pencil, box, spec, truth)
        if tracer is not None:
            tracer.paused = False
            tracer.solve_id = i
        result, counter, error, seconds = run_solve(fu, problem, spec["strategy"])
        record = {"s": seconds, "ref_s": clock.scale(seconds),
                  "factorizations": counter.factorizations,
                  "lanczos_runs": counter.lanczos_runs}
        record.update(check(problem, truth, result, error))
        solves.append(record)
    loop_s = time.perf_counter() - start

    out = {
        "spec": spec,
        "setups": setups,
        "solves": solves,
        "loop_s": loop_s,
        "kernel_s": clock.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        out["sites"] = dict(tracer.sites)
        out["spans"] = len(tracer.spans)
        out["layers"] = layer_metrics(tracer.spans, solves)
        if job.get("trace_out"):
            tracer.write(job["trace_out"])
    return out


def layer_metrics(spans, solves):
    """Per-layer metrics of a traced run as name -> (value, unit).

    Counts and seconds are means per solve; ratios are taken over the
    whole run; set-up times are medians over the set-up repetitions.
    """
    from tracer import layer_totals

    totals = layer_totals(spans)
    n = max(len(solves), 1)
    count, secs = "count/solve", "s/solve"

    def get(name, key):
        return totals[name][key] if name in totals else 0

    def attrs(name, key):
        return [a[key] for a in totals[name]["attrs"]] if name in totals else []

    def ratio(num, den):
        return num / den if den else 0.0

    def setup_median(name):
        durations = [end - start for nm, start, end, _, solve, *_ in spans
                     if nm == name and solve is None]
        return statistics.median(durations) if durations else 0.0

    factorize = get("sparse.factorize", "calls")
    evals = get("reduced.eval", "calls")
    inner_iterations = sum(attrs("boxmin", "iterations"))
    statuses = attrs("boxmin", "status")
    rm_solves = get("trustregion.solve", "calls")
    accepted = sum(attrs("trustregion.solve", "accepted"))
    ad_iterations = sum(attrs("baselines.solve", "iterations"))
    # accepted points include the start: RM's accepted outer steps plus
    # one per solve; AD's accepted iterates are its solver iterations
    accepted_points = accepted + rm_solves + ad_iterations
    # RM trial factorizations: all but the one at the starting point
    trials = sum(r["factorizations"] - 1 for r in solves) if rm_solves else 0
    ad_evaluations = get("objective.evaluate_full", "calls") if ad_iterations else 0
    return {
        "benchmarks.mesh_s": (setup_median("benchmarks.mesh"), "s"),
        "fem.assemble_s": (setup_median("fem.assemble"), "s"),
        "pencil.evaluate.calls": (get("pencil.evaluate", "calls") / n, count),
        "pencil.evaluate.s": (get("pencil.evaluate", "s") / n, secs),
        "pencil.evaluate.per_factorization": (
            ratio(get("pencil.evaluate", "calls"), factorize), "ratio"),
        "sparse.factorize.calls": (factorize / n, count),
        "sparse.factorize.s": (get("sparse.factorize", "s") / n, secs),
        "sparse.factorize.ms_per_call": (
            1e3 * ratio(get("sparse.factorize", "s"), factorize), "ms"),
        "sparse.backsolve.calls": (get("sparse.backsolve", "calls") / n, count),
        "sparse.backsolve.columns": (sum(attrs("sparse.backsolve", "columns")) / n, count),
        "sparse.backsolve.s": (get("sparse.backsolve", "s") / n, secs),
        "lanczos.calls": (get("lanczos", "calls") / n, count),
        "lanczos.self_s": (get("lanczos", "self_s") / n, secs),
        "lanczos.basis_m": (ratio(sum(attrs("lanczos", "m")), get("lanczos", "calls")), "count"),
        "objective.evaluate_full.calls": (get("objective.evaluate_full", "calls") / n, count),
        "objective.evaluate_full.self_s": (get("objective.evaluate_full", "self_s") / n, secs),
        "objective.full_gradient.calls": (get("objective.full_gradient", "calls") / n, count),
        "objective.full_gradient.s": (get("objective.full_gradient", "s") / n, secs),
        "objective.full_gradient.per_accepted": (
            ratio(get("objective.full_gradient", "calls"), accepted_points), "ratio"),
        "reduced.build.calls": (get("reduced.build", "calls") / n, count),
        "reduced.build.self_s": (get("reduced.build", "self_s") / n, secs),
        "reduced.eval.calls": (evals / n, count),
        "reduced.eval.s": (get("reduced.eval", "s") / n, secs),
        "reduced.eval.ms_per_call": (1e3 * ratio(get("reduced.eval", "s"), evals), "ms"),
        "reduced.eval.rejected": (
            sum(totals["reduced.eval"]["errors"].values()) / n if evals else 0.0, count),
        "reduced.eval.per_inner_iteration": (ratio(evals, inner_iterations), "ratio"),
        "boxmin.calls": (get("boxmin", "calls") / n, count),
        "boxmin.self_s": (get("boxmin", "self_s") / n, secs),
        "boxmin.iterations": (inner_iterations / n, count),
        "boxmin.stalled": (statuses.count("stalled") / n, count),
        "boxmin.maxiter": (statuses.count("maxiter") / n, count),
        "trustregion.outer_iterations": (sum(attrs("trustregion.solve", "outer")) / n, count),
        "trustregion.accepted": (accepted / n, count),
        "trustregion.accept_ratio": (ratio(accepted, trials), "ratio"),
        "trustregion.self_s": (get("trustregion.solve", "self_s") / n, secs),
        "baselines.iterations": (ad_iterations / n, count),
        "baselines.evaluations_per_iteration": (ratio(ad_evaluations, ad_iterations), "ratio"),
        "baselines.self_s": (get("baselines.solve", "self_s") / n, secs),
        "trace.spans_per_solve": (sum(1 for sp in spans if sp[4] is not None) / n, count),
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
