"""Check that a change gives the same answers as another checkout.

    python tools/same_answers.py <other checkout> [--solves 40]

Runs the same RM solves (true points from Sobol seed 41) on every gated
workload, on this checkout and on the other one,
each tree in its own subprocess with its own ``src`` on ``PYTHONPATH``
and BLAS pinned to one thread. Both take their set-ups and true points
from this checkout's ``perfbench/worker.py`` (``WORKLOADS``,
``true_points``, ``make_problem``), so they solve identical problems.

Per workload it prints the largest relative change in x and in the
final frequencies, and the number of solves whose factorization count
and per-step inner-iteration counts are equal on both sides. Exits 1
if any count, converged flag or raised error differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GATED = ("arch-rm", "vault-rm")
SEED = 41  # Sobol seed of the true points


def run_tree(workload, solves):
    """Solve in this process with whatever ``femupdate`` is importable;
    returns one record per solve."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import femupdate as fu
    from worker import WORKLOADS, make_problem, true_points

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(fu.__file__).resolve().is_relative_to(src):
        raise SystemExit("femupdate imported from %s, not from %s" % (fu.__file__, src))
    spec = WORKLOADS[workload]
    mesh, materials = fu.benchmarks.benchmark(spec["structure"], spec["refine"])
    pencil, box, _ = fu.assemble_parametric(mesh, materials)
    truths = true_points(box, spec["spread"], SEED, max(0, math.ceil(math.log2(solves))))
    records = []
    for truth in truths[:solves]:
        problem = make_problem(fu, pencil, box, spec, truth)
        counter = fu.EvalCounter()
        try:
            result = fu.solve(problem, counter=counter)
        except Exception as exc:  # compared like any other outcome
            records.append({"error": type(exc).__name__})
            continue
        records.append({
            "x": result.x.tolist(),
            "frequencies": result.frequencies.tolist(),
            "converged": bool(result.converged),
            "factorizations": counter.factorizations,
            "inner": [rec.inner_iterations for rec in result.history],
        })
    return records


def solve_in(tree, workload, solves):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(tree).resolve() / "src"))
    out = subprocess.run(
        [sys.executable, __file__, "--run", workload, "--solves", str(solves)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def rel_change(old, new):
    old, new = np.asarray(old), np.asarray(new)
    return float(np.max(np.abs(new - old) / np.abs(old)))


def compare(workload, parent, this):
    """Print one workload's report; True when every count agrees."""
    equal, dx, df = 0, 0.0, 0.0
    for a, b in zip(parent, this):
        if "error" in a or "error" in b:
            equal += a.get("error") == b.get("error")
            continue
        dx = max(dx, rel_change(a["x"], b["x"]))
        df = max(df, rel_change(a["frequencies"], b["frequencies"]))
        equal += all(a[k] == b[k] for k in ("converged", "factorizations", "inner"))
    converged = ["%d/%d" % (sum(r.get("converged", False) for r in side), len(side))
                 for side in (parent, this)]
    print("%s: converged %s (other) %s (this); counts equal in %d/%d; "
          "max relative change x %.2e, frequencies %.2e"
          % (workload, converged[0], converged[1], equal, len(this), dx, df))
    return equal == len(this)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", help="the other checkout (e.g. the parent commit)")
    parser.add_argument("--solves", type=int, default=40)
    parser.add_argument("--run", help=argparse.SUPPRESS)  # internal: one tree, one workload
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_tree(args.run, args.solves)))
        return 0
    if args.other is None:
        parser.error("give the other checkout")
    ok = True
    for workload in GATED:
        parent = solve_in(args.other, workload, args.solves)
        this = solve_in(ROOT, workload, args.solves)
        ok &= compare(workload, parent, this)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
