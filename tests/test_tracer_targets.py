"""The benchmark's tracer patches package callables by name; an API
change that drops one of them must fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

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
