"""Check that a change gives the same answers as another checkout.

    python tools/same_answers.py <other checkout> [--solves 40] [--hidden]

Runs the same RM solves (true points from Sobol seed 41) on every gated
workload, on this checkout and on the other one,
each tree in its own subprocess with its own ``src`` on ``PYTHONPATH``
and BLAS pinned to one thread. Both take their set-ups and true points
from this checkout's ``perfbench/worker.py`` (``WORKLOADS``,
``true_points``, ``make_problem``), so they solve identical problems.

Per workload it first compares the assembled pencil: a sha256 over the
patterns and values of K0, M0 and every increment, the patterns' roots
(which decide the rooted band ordering), where each increment's values
sit in its family's parameter columns, the box, the start and the
parameter names. Next to it, it prints each tree's
Cholesky kernel for K(x) and, on the band kernel, its half-bandwidth and
stored width (kd, w), so an ordering change shows, and the peak resident
set of that tree's subprocess (``ru_maxrss``, set-up and solves), so a
memory change shows beside "pencil identical". The peak is informative,
not a gate: it moves by a few MB between runs. Then it prints the
largest relative change in x and in the final frequencies, and, as two
separate agreements, the number of solves whose outcome (trial
factorization count, converged flag or raised error) is equal on both
sides and the number whose per-step inner-iteration counts are. The
first is the paper's cost; the second moves whenever the inner solver
does. A solve's trial factorizations are all of its factorizations but
the start's (``history[0].factorizations``): a solve from a start that
the pencil already holds pays nothing there, so the totals move with
that and not with the answers. The number of solves per tree that
reused the start is printed beside them.

Then each tree's ``femupdate`` command runs ``update`` on the config of
acceptance guarantee 9 (``arch`` r1, RM, start 2000 1100 1100) and a
one-level, two-trial ``noise-study`` on the same structure, and
``update`` on the same problem on the ``arch`` r1 mesh that ``femupdate
mesh`` exports (``benchmark = mesh:``). The reproducible files they
write (convergence.csv, summary.txt, noise_study.csv,
noise_summary.txt, and the mesh run's convergence.csv and summary.txt
under ``mesh/``) are compared byte for byte: it prints "outputs
identical" or names the files that differ. Exits 1 if
the pencil digests, any trial or inner-iteration count, a converged
flag, a raised error or one of those files differ, else 0.

``--hidden`` then prints a table of rows the gate does not draw: the
``arch`` r1 and r3 far starts, ``vault`` r1 from the midpoint with 10
modes relative and with 5 modes uniform, ``vault`` r2 from the
midpoint, and 32 Sobol truths (seed 41) at spread 0.25 on ``arch`` r1,
on ``vault`` r1 with 10 modes relative, and on ``vault`` r1 with 5
modes uniform (rank-deficient: the data cannot pin every parameter).
Three more rows fit targets computed on a finer mesh at the truth, so
no exact fit exists: ``arch`` r3 targets on r2 from the midpoint and
from the far start, and ``vault`` r2 targets on r1 from the midpoint.
Per row and tree it gives the mean factorizations (the start's counted
once, held or not) and surrogate evaluations (calls of
``evaluate_reduced_with_gradient`` from the trust region) per solve,
and the total inner ``maxiter`` stops, failures (not converged, or a
final frequency error above ``worker.FREQ_TOL``), mode-swap endpoints
(a final mode whose best MAC partner at the truth is another mode) and
seconds of solving; then whether every solve's counts and flags are
equal on both trees. On the finer-mesh rows, where no fit meets
``FREQ_TOL`` and the two meshes' modes cannot be paired by MAC, the
failures and swaps give way to the solves that did not converge, the
largest final relative frequency error and the largest relative
parameter shift from the truth. The table is informative: it leaves
the exit status as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GATED = ("arch-rm", "vault-rm")
SEED = 41  # Sobol seed of the true points
# --hidden rows: (structure, refine, modes, weights, start, truths, targets'
# refine); a start or a truth names a benchmarks constant, None is the box
# midpoint, and a number of truths means that many Sobol truths at spread
# 0.25; the targets are the frequencies at each truth on the mesh of the
# targets' refine
HIDDEN = {
    "arch r1, far start": ("arch", 1, 5, "uniform", "ARCH_FAR_START", "ARCH_TRUE", 1),
    "arch r3, far start": ("arch", 3, 5, "uniform", "ARCH_FAR_START", "ARCH_TRUE", 3),
    "vault r1, 10 modes relative": ("vault", 1, 10, "relative", None, "VAULT_TRUE", 1),
    "vault r1, 5 modes uniform": ("vault", 1, 5, "uniform", None, "VAULT_TRUE", 1),
    "vault r2, 10 modes relative": ("vault", 2, 10, "relative", None, "VAULT_TRUE", 2),
    "arch r1, 32 truths": ("arch", 1, 5, "uniform", None, 32, 1),
    "vault r1 (10 rel.), 32 truths": ("vault", 1, 10, "relative", None, 32, 1),
    "rank-deficient: vault r1 (5 uni.), 32 truths": ("vault", 1, 5, "uniform", None, 32, 1),
    "arch r3 targets on r2, midpoint": ("arch", 2, 5, "uniform", None, "ARCH_TRUE", 3),
    "arch r3 targets on r2, far start": ("arch", 2, 5, "uniform", "ARCH_FAR_START", "ARCH_TRUE", 3),
    "vault r2 targets on r1, midpoint": ("vault", 1, 10, "relative", None, "VAULT_TRUE", 2),
}

# the CLI's reproducible files: acceptance guarantee 9's update, and a
# noise study on the same structure
CLI_CONFIG = """[run]
benchmark = arch
modes = 5
strategy = RM
start = 2000 1100 1100

[targets]
mode = generate
values = 5000 2200 4800

[noise_study]
deltas = 1e-3
trials = 2
"""
CLI_FILES = ("convergence.csv", "summary.txt", "noise_study.csv", "noise_summary.txt")
# the same update on the arch r1 mesh that ``femupdate mesh`` exports: each
# section gives a fixed property's value and a free one's bounds, and the
# mesh path is relative, so summary.txt reads alike in both trees
MESH_CONFIG = """[run]
benchmark = mesh:arch.mesh
modes = 5
strategy = RM
start = 2000 1100 1100

[targets]
mode = generate
values = 5000 2200 4800

[material.arch]
region = 1
young = 3250
density = 1800
poisson = 0.2

[material.pier_left]
region = 2
poisson = 0.2
free = young density
young_bounds = 1000 9000
density_bounds = 1000 3000

[material.pier_right]
region = 3
density = 2100
poisson = 0.2
free = young
young_bounds = 1000 9000
"""
MESH_FILES = ("convergence.csv", "summary.txt")


def pencil_digest(pencil, box, start):
    """sha256 over the patterns (with their roots) and values of K0, M0 and
    every increment, the parameter-column layout, the box, the start and
    the names."""
    digest = hashlib.sha256()
    for family in (pencil._k, pencil._m):  # the pencil has no public view of its terms
        for term in (family.base, *family.increments):
            roots = term.pattern.roots if term.pattern.roots is not None else np.zeros(0, int)
            for array in (term.pattern.indptr, term.pattern.indices, roots, term.data):
                digest.update(np.ascontiguousarray(array).tobytes())
        for array in (family._columns.indptr, family._columns.indices):  # where dA_j sits
            digest.update(np.ascontiguousarray(array).tobytes())
    for array in (box.lower, box.upper, start):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update("\n".join(pencil.names).encode())
    return digest.hexdigest()


def tree_package():
    """The ``femupdate`` on ``PYTHONPATH``, with ``perfbench/`` importable."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import femupdate as fu

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(fu.__file__).resolve().is_relative_to(src):
        raise SystemExit("femupdate imported from %s, not from %s" % (fu.__file__, src))
    return fu


def run_tree(workload, solves):
    """Solve in this process with whatever ``femupdate`` is importable;
    returns the pencil digest and one record per solve."""
    fu = tree_package()
    from worker import WORKLOADS, make_problem, true_points

    spec = WORKLOADS[workload]
    mesh, materials = fu.benchmarks.benchmark(spec["structure"], spec["refine"])
    pencil, box, start = fu.assemble_parametric(mesh, materials)
    _, kd, pack = pencil.evaluate(box.midpoint())[0].pattern.ordering()
    kernel = "SuperLU" if kd is None else "band (%d, %d)" % (kd, pack[2])
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
            "trials": counter.factorizations - result.history[0].factorizations,
            "reused": result.history[0].factorizations == 0,
            "inner": [rec.inner_iterations for rec in result.history],
        })
    return {"pencil": pencil_digest(pencil, box, start), "kernel": kernel, "solves": records,
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_hidden():
    """Solve every --hidden row with whatever ``femupdate`` is importable;
    returns one record list per row."""
    fu = tree_package()
    from worker import FREQ_TOL, true_points

    evaluate, calls = fu.trustregion.evaluate_reduced_with_gradient, [0]

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    fu.trustregion.evaluate_reduced_with_gradient = counted
    rows = {}
    for label, (structure, refine, modes, weights, start, truths, finer) in HIDDEN.items():
        pencil, box, _ = fu.assemble_parametric(*fu.benchmarks.benchmark(structure, refine))
        x0 = None if start is None else np.array(getattr(fu.benchmarks, start))
        if isinstance(truths, int):
            truths = true_points(box, 0.25, SEED, int(math.log2(truths)))
        else:
            truths = [np.array(getattr(fu.benchmarks, truths))]
        probe = fu.UpdatingProblem(pencil, box, measured=np.ones(modes), weights=weights)
        source = probe if finer == refine else fu.UpdatingProblem(
            fu.assemble_parametric(*fu.benchmarks.benchmark(structure, finer))[0], box,
            measured=np.ones(modes), weights=weights)
        rows[label] = records = []
        for truth in truths:
            at_truth = fu.evaluate_full(source, truth)
            problem = fu.UpdatingProblem(pencil, box, measured=at_truth.frequencies,
                                         weights=weights)
            counter, calls[0], t0 = fu.EvalCounter(), 0, time.perf_counter()
            try:
                result = fu.solve(problem, x0=x0, counter=counter)
            except Exception as exc:  # compared like any other outcome
                records.append({"error": type(exc).__name__, "seconds": time.perf_counter() - t0})
                continue
            seconds = time.perf_counter() - t0
            error = float(np.max(np.abs(result.frequencies - problem.measured) / problem.measured))
            record = {
                "factorizations": counter.factorizations - result.history[0].factorizations + 1,
                "evaluations": calls[0],
                "maxiter": sum(rec.inner_status == "maxiter" for rec in result.history),
                "seconds": seconds,
            }
            if source is not probe:  # no exact fit, and no MAC across meshes
                record.update(converged=bool(result.converged), freq_error=error,
                              shift=float(np.max(np.abs(result.x - truth) / truth)))
            else:
                end = fu.evaluate_full(probe, result.x).lanczos.vectors
                true = at_truth.lanczos.vectors
                mac = (end.T @ true) ** 2 / np.outer(np.sum(end**2, 0), np.sum(true**2, 0))
                record.update(failed=bool(not result.converged or not error <= FREQ_TOL),
                              swapped=bool(np.any(np.argmax(mac, axis=1) != np.arange(modes))))
            records.append(record)
    return rows


def hidden_cell(records):
    """One tree's cell of a --hidden row."""
    solved = [r for r in records if "error" not in r]
    per, total = len(solved) or math.nan, lambda key: sum(r[key] for r in solved)
    raised = len(records) - len(solved)
    if any("shift" in r for r in solved):  # targets from a finer mesh
        largest = lambda key: max(r[key] for r in solved)
        outcome = "%d not converged, frequency error %.1e, parameter shift %.2f" % (
            raised + len(solved) - total("converged"), largest("freq_error"), largest("shift"))
    else:
        outcome = "%d failed, %d swapped" % (raised + total("failed"), total("swapped"))
    return "%.2f / %.1f; %d maxiter, %s; %.2f s" % (
        total("factorizations") / per, total("evaluations") / per, total("maxiter"), outcome,
        sum(r["seconds"] for r in records))


def print_hidden(parent, this):
    print("hidden rows: factorizations / surrogate evaluations per solve; inner maxiter "
          "stops, failed and mode-swapped solves (targets from a finer mesh: solves not "
          "converged, largest final relative frequency error and parameter shift from the "
          "truth); seconds (informative)")
    print("| row | solves | other | this | counts |\n| --- | --- | --- | --- | --- |")
    counts = lambda side: [{k: v for k, v in r.items() if k != "seconds"} for r in side]
    for label in HIDDEN:
        a, b = parent[label], this[label]
        print("| %s | %d | %s | %s | %s |" % (label, len(b), hidden_cell(a), hidden_cell(b),
                                             "equal" if counts(a) == counts(b) else "DIFFER"))


def tree_env(tree):
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=str(Path(tree).resolve() / "src"))


def solve_in(tree, workload, solves):
    out = subprocess.run(
        [sys.executable, __file__, "--run", workload, "--solves", str(solves)],
        env=tree_env(tree), check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def cli_outputs(tree, workdir):
    """Run the tree's ``update`` and ``noise-study`` on ``CLI_CONFIG``, and
    ``update`` on ``MESH_CONFIG`` after ``mesh arch``, in ``workdir``;
    returns {file name: contents} of ``CLI_FILES`` and, under ``mesh/``,
    of ``MESH_FILES``."""
    workdir.mkdir()
    (workdir / "run.ini").write_text(CLI_CONFIG)
    (workdir / "mesh.ini").write_text(MESH_CONFIG)
    for args in (("update", "run.ini", "--output-dir", "out"),
                 ("noise-study", "run.ini", "--output-dir", "out"),
                 ("mesh", "arch", "arch.mesh"),
                 ("update", "mesh.ini", "--output-dir", "mesh")):
        subprocess.run([sys.executable, "-m", "femupdate.cli", *args], cwd=workdir,
                       env=tree_env(tree), check=True, stdout=subprocess.DEVNULL)
    return {**{name: (workdir / "out" / name).read_bytes() for name in CLI_FILES},
            **{"mesh/" + name: (workdir / "mesh" / name).read_bytes() for name in MESH_FILES}}


def rel_change(old, new):
    old, new = np.asarray(old), np.asarray(new)
    return float(np.max(np.abs(new - old) / np.abs(old)))


def compare(workload, parent, this):
    """Print one workload's report; True when the pencils and every count agree."""
    same_pencil = parent["pencil"] == this["pencil"]
    kernels = parent["kernel"], parent["peak_mb"], this["kernel"], this["peak_mb"]
    parent, this = parent["solves"], this["solves"]
    outcomes, inner, dx, df = 0, 0, 0.0, 0.0
    for a, b in zip(parent, this):
        if "error" in a or "error" in b:
            outcomes += a.get("error") == b.get("error")
            inner += a.get("error") == b.get("error")
            continue
        dx = max(dx, rel_change(a["x"], b["x"]))
        df = max(df, rel_change(a["frequencies"], b["frequencies"]))
        outcomes += all(a[k] == b[k] for k in ("converged", "trials"))
        inner += a["inner"] == b["inner"]
    converged, reused = (["%d/%d" % (sum(r.get(key, False) for r in side), len(side))
                          for side in (parent, this)] for key in ("converged", "reused"))
    print("%s: pencil %s, K on %s, peak RSS %.1f MB (other) %s, %.1f MB (this); "
          "converged %s (other) %s (this); start reused %s (other) %s (this); "
          "trial factorizations equal in %d/%d, inner iterations equal in %d/%d; "
          "max relative change x %.2e, frequencies %.2e"
          % (workload, "identical" if same_pencil else "DIFFERS", *kernels, *converged,
             *reused, outcomes, len(this), inner, len(this), dx, df))
    return same_pencil and outcomes == inner == len(this)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", help="the other checkout (e.g. the parent commit)")
    parser.add_argument("--solves", type=int, default=40)
    parser.add_argument("--hidden", action="store_true",
                        help="also print the table of rows the gate does not draw")
    parser.add_argument("--run", help=argparse.SUPPRESS)  # internal: one tree, one workload
    args = parser.parse_args(argv)
    if args.run:
        rows = run_hidden() if args.run == "hidden" else run_tree(args.run, args.solves)
        print(json.dumps(rows))
        return 0
    if args.other is None:
        parser.error("give the other checkout")
    ok = True
    for workload in GATED:
        parent = solve_in(args.other, workload, args.solves)
        this = solve_in(ROOT, workload, args.solves)
        ok &= compare(workload, parent, this)
    with tempfile.TemporaryDirectory() as tmp:
        parent, this = (cli_outputs(tree, Path(tmp) / side)
                        for tree, side in ((args.other, "other"), (ROOT, "this")))
        differ = [name for name in this if parent[name] != this[name]]
    print("update, noise-study and the external-mesh update: " + (
        "outputs identical" if not differ else "outputs differ: " + ", ".join(differ)))
    ok &= not differ
    if args.hidden:
        print_hidden(solve_in(args.other, "hidden", 0), solve_in(ROOT, "hidden", 0))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
