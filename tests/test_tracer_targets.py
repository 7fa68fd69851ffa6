"""The benchmark's tracer patches package callables by name; an API
change that drops one of them must fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import femupdate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_callable_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets(femupdate)
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), "%s: %s.%s is gone" % (
            name, owner.__name__, attr)


def test_every_lanczos_step_back_solves_through_the_traced_method(monkeypatch):
    # the traced run counts sparse.backsolve at CholeskyFactor.solve; a
    # Lanczos loop that solved some other way would read zero there
    solve, calls = femupdate.sparse.CholeskyFactor.solve, []

    def counted(self, b):
        calls.append(np.shape(b))
        return solve(self, b)

    monkeypatch.setattr(femupdate.sparse.CholeskyFactor, "solve", counted)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    k = femupdate.SparseSymMatrix.from_full(a @ a.T + 40.0 * np.eye(40))
    m = femupdate.SparseSymMatrix.from_full(np.eye(40))
    restarts = femupdate.SparseSymMatrix.from_full(np.diag([1.0, 1.0, 2.0, 2.0]))
    for k_matrix, m_matrix, s in ((k, m, 4), (restarts, restarts, 3)):
        calls.clear()
        result = femupdate.lanczos_smallest(k_matrix, m_matrix, s=s, tol=1e-9)
        assert calls == [(k_matrix.n,)] * result.m
    assert np.any(np.diag(result.tridiagonal, 1) == 0.0)  # the second run restarted
