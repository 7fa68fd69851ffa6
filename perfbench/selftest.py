"""Self-tests of the benchmark on a tiny configuration.

Run from the root of a checkout with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The tiny configuration is ``arch`` refine 1 with one solve per strategy,
a few seconds in all. The tests check that every metric named in
BENCHMARK.json is printed with its unit, that traced and untraced runs
of one seed count the same work, that a second seed runs end to end,
and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {"structure": "arch", "refine": 1, "modes": 5, "weights": "uniform", "spread": 0.02}
SEED = 3


def job(strategy, seed=SEED):
    return {"spec": dict(TINY, strategy=strategy), "seed": seed, "seconds": 60.0,
            "max_solves": 1}


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def runs():
    deadline = time.monotonic() + 170.0
    return {(strategy, trace): (run.traced if trace else run.untraced)(job(strategy), deadline)
            for strategy in ("RM", "AD") for trace in (0, 1)}


@pytest.mark.parametrize("strategy", ["RM", "AD"])
def test_every_declared_metric_is_printed_with_its_unit(runs, strategy):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out, correct, metrics = runs[strategy, trace]
        line = json.loads(run.result_line(out, correct, metrics))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] == 1 and line["correct"] is True
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == declared(kind)


@pytest.mark.parametrize("strategy", ["RM", "AD"])
def test_traced_and_untraced_runs_count_the_same_work(runs, strategy):
    plain, _, e2e = runs[strategy, 0]
    with_trace, correct, layers = runs[strategy, 1]
    assert correct
    assert [s["digest"] for s in plain["solves"]] == [s["digest"] for s in with_trace["solves"]]
    assert e2e["factorizations_per_solve"][0] == layers["sparse.factorize.calls"][0]
    if strategy == "AD":
        # the untraced run sees the inner solver's iterations only for AD
        assert layers["boxmin.iterations"][0] == plain["solves"][0]["iterations"]
        assert layers["reduced.eval.calls"][0] == 0
        assert layers["reduced.build.calls"][0] == 0
    else:
        assert layers["reduced.eval.calls"][0] > 0
        assert layers["reduced.build.calls"][0] > 0
        assert layers["trustregion.outer_iterations"][0] == plain["solves"][0]["outer"]


def test_tracer_patches_every_import_site(runs):
    sites = runs["RM", 1][0]["sites"]
    assert "femupdate.trustregion.evaluate_full" in sites["objective.evaluate_full"]
    assert "femupdate.reduced.full_gradient" in sites["objective.full_gradient"]
    assert "femupdate.objective.lanczos_smallest" in sites["lanczos"]
    assert "femupdate.lanczos.cholesky_factorize" in sites["sparse.factorize"]
    assert sites["pencil.evaluate"] == ["ParametricPencil.evaluate"]
    assert sites["sparse.backsolve"] == ["CholeskyFactor.solve"]


def test_second_seed_runs_end_to_end():
    out, correct, metrics = run.untraced(job("RM", seed=SEED + 1), time.monotonic() + 120.0)
    assert correct and len(out["solves"]) == 1
    assert all(value > 0 for value, _ in metrics.values())


def test_refuses_to_run_without_the_package_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "arch-rm", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
