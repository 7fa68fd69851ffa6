"""femupdate benchmark: seeded model updates through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload vault-rm --seed 1 --seconds 30 --trace 0

``--trace 0`` runs one untraced worker process for ``--seconds`` and
prints the end-to-end metrics. ``--trace 1`` runs a traced worker for
half the time, then an untraced worker on exactly the same solves; it
prints the per-layer metrics, checks that both runs computed the same
thing, and reports the tracing overhead. Workers run closed loop, one
solve after another, with BLAS pinned to one thread in their own
environment. Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_PERCENTILES = (75, 90, 95, 99)

sys.path.insert(0, str(HERE))
from worker import REFERENCE_KERNEL_S, WORKLOADS  # noqa: E402

def child_env():
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(job, deadline):
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for a worker process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(solves):
    return [s for s in solves if s["outcome"] != "pass"]


def integrity_ok(solves):
    return bool(solves) and all(s["well_formed"] for s in solves)


def end_to_end(out):
    """End-to-end metrics of an untraced run as name -> (value, unit)."""
    solves = out["solves"]
    times = [s["ref_s"] for s in solves]
    completed = [s for s in solves if not s["outcome"].startswith("raised:")]
    return {
        "solve_s": (statistics.median(times), "s"),
        "solves_per_min": (60.0 * len(completed) / sum(times), "1/min"),
        "setup_s": (statistics.median(s["ref_s"] for s in out["setups"]), "s"),
        "factorizations_per_solve": (
            statistics.fmean(s["factorizations"] for s in solves), "count"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def tail_line(times):
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    shown = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100.0 >= 10]
    if not shown:
        return "median %.4f s over %d solves (too few for a tail percentile)" % (
            statistics.median(times), n)
    p = shown[-1]
    return "median %.4f s, p%d %.4f s over %d solves" % (
        statistics.median(times), p, ordered[min(n - 1, int(n * p / 100.0))], n)


def describe(job, out):
    solves = out["solves"]
    failed = failures(solves)
    by_kind = Counter(s["outcome"] for s in failed)
    env = out["env"]
    print("workload %s seed %d: %d solves in %.1f s of closed loop, after %d timed "
          "set-ups and 1 untimed warm-up RM solve" % (
              job.get("workload", "custom"), job["seed"], len(solves), out["loop_s"],
              len(out["setups"])))
    print("  solve_s at reference speed: %s" % tail_line([s["ref_s"] for s in solves]))
    print("  wall seconds per solve: %s" % tail_line([s["s"] for s in solves]))
    print("  machine speed: reference kernel median %.5f s, %.3f x its reference %.4f s" % (
        statistics.median(out["kernel_s"]),
        statistics.median(out["kernel_s"]) / REFERENCE_KERNEL_S, REFERENCE_KERNEL_S))
    print("  fail_rate %.4f (%d failed of %d attempted)%s" % (
        len(failed) / len(solves), len(failed), len(solves),
        "".join(" %s=%d" % kv for kv in sorted(by_kind.items()))))
    print("  blas_threads %s, nproc %d, python %s, numpy %s, scipy %s" % (
        env["blas_threads"], env["nproc"], env["python"], env["numpy"], env["scipy"]))


def traced(job, deadline):
    """Traced run for half the time, then an untraced replay of its solves.

    Returns (traced output, correct, per-layer metrics). Correct means
    both runs made identical per-solve counts and bit-identical results,
    the tracer counted what the program's own counter did, and every
    result is well formed.
    """
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / ("trace-%s-seed%d.jsonl" % (job.get("workload", "custom"), job["seed"]))
    with_trace = run_worker(dict(job, seconds=job["seconds"] / 2.0, trace=1,
                                 trace_out=str(trace_out)), deadline)
    n = len(with_trace["solves"])
    replay = run_worker(dict(job, seconds=3.0 * job["seconds"], trace=0, max_solves=n),
                        deadline)
    keys = ("factorizations", "lanczos_runs", "outcome", "digest",
            "outer", "accepted", "iterations")
    same = len(replay["solves"]) == n and all(
        a.get(k) == b.get(k)
        for a, b in zip(with_trace["solves"], replay["solves"]) for k in keys
    )
    layers = with_trace["layers"]
    agrees = layers["sparse.factorize.calls"][0] == sum(
        s["factorizations"] for s in with_trace["solves"]) / n
    traced_s = sum(s["ref_s"] for s in with_trace["solves"])
    untraced_s = sum(s["ref_s"] for s in replay["solves"])
    layers["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    describe(job, with_trace)
    print("  traced %d solves in %.3f s, untraced replay %.3f s (reference speed): "
          "overhead %.2f%%; "
          "%d spans written to %s" % (n, traced_s, untraced_s,
                                       layers["trace.overhead_pct"][0], with_trace["spans"],
                                       trace_out.relative_to(ROOT)))
    print("  per-solve counts and result digests equal to the untraced run: %s; "
          "traced factorize calls equal EvalCounter: %s" % (same, agrees))
    for layer, sites in sorted(with_trace["sites"].items()):
        print("  patched %-24s at %s" % (layer, ", ".join(sites)))
    correct = same and agrees and integrity_ok(with_trace["solves"])
    return with_trace, correct, layers


def untraced(job, deadline):
    """Untraced run; returns (output, correct, end-to-end metrics)."""
    out = run_worker(dict(job, trace=0), deadline)
    describe(job, out)
    return out, integrity_ok(out["solves"]), end_to_end(out)


def result_line(out, correct, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": len(out["solves"]),
        "failed": len(failures(out["solves"])),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "femupdate" / "__init__.py").is_file():
        sys.exit("perfbench: no femupdate sources at %s" % SRC)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    run = traced if args.trace else untraced
    print(result_line(*run(job, deadline)))


if __name__ == "__main__":
    main()
