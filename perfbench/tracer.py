"""Span tracer that wraps the package's public functions from outside.

The package imports its functions by value (``from .objective import
evaluate_full``), so patching one module attribute misses the calls made
through the other names. ``Tracer.install`` therefore replaces every
``femupdate.*`` module attribute that *is* a traced function, plus the
two traced methods on their classes, and ``uninstall`` puts the
originals back.

Each call records one span in memory: name, start, end, parent span,
solve id, the exception type if it raised, and a few per-call counts.
Self time is a span's duration minus the time its child spans cover;
the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _columns(args, kwargs, out):
    b = args[1] if len(args) > 1 else kwargs["b"]
    shape = getattr(b, "shape", ())
    return {"columns": int(shape[1]) if len(shape) > 1 else 1}


def _lanczos(args, kwargs, out):
    return {"m": int(out.m)}


def _boxmin(args, kwargs, out):
    return {"iterations": int(out.iterations), "status": out.status}


def _trustregion(args, kwargs, out):
    accepted = sum(1 for rec in out.history[1:] if rec.accepted)
    return {"outer": int(out.n_outer), "accepted": accepted}


def _baselines(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def targets(fu):
    """(span name, owner, attribute, annotate) for every traced callable.

    ``owner`` is the defining module or class. Functions are patched
    wherever the package re-exports them; methods on their class.
    """
    return [
        ("benchmarks.mesh", fu.benchmarks, "benchmark", None),
        ("fem.assemble", fu.fem, "assemble_parametric", None),
        ("pencil.evaluate", fu.pencil.ParametricPencil, "evaluate", None),
        ("sparse.factorize", fu.sparse, "cholesky_factorize", None),
        ("sparse.backsolve", fu.sparse.CholeskyFactor, "solve", _columns),
        ("lanczos", fu.lanczos, "lanczos_smallest", _lanczos),
        ("objective.evaluate_full", fu.objective, "evaluate_full", None),
        ("objective.full_gradient", fu.objective, "full_gradient", None),
        ("reduced.build", fu.reduced, "build_reduced_model", None),
        ("reduced.eval", fu.reduced, "evaluate_reduced", None),
        ("reduced.eval", fu.reduced, "reduced_gradient", None),
        ("reduced.eval", fu.reduced, "evaluate_reduced_with_gradient", None),
        ("boxmin", fu.boxmin, "minimize_box", _boxmin),
        ("trustregion.solve", fu.trustregion, "solve", _trustregion),
        ("baselines.solve", fu.baselines, "solve_baseline", _baselines),
    ]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # (name, start, end, parent index, solve id, error, attrs)
        self.spans = []
        self.solve_id = None
        self.paused = False
        self.sites = defaultdict(list)  # span name -> patched "module.attr"
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            error = attrs = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if error is None and annotate is not None:
                    attrs = annotate(args, kwargs, out)
                spans[index] = (name, start, end, parent, self.solve_id, error, attrs)
            return out

        return traced

    def install(self, fu):
        modules = [
            mod for key, mod in sys.modules.items()
            if (key == "femupdate" or key.startswith("femupdate.")) and mod is not None
        ]
        for name, owner, attr, annotate in targets(fu):
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, annotate)
            for site in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, key, original))
                        setattr(site, key, wrapped)
                        self.sites[name].append("%s.%s" % (site.__name__, key))

    def uninstall(self):
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()

    def write(self, path):
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, solve, error, attrs) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "solve": solve, "error": error,
                    "attrs": attrs,
                }, separators=(",", ":")) + "\n")


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds, errors, attrs."""
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "errors": defaultdict(int), "attrs": []})
    for i, (name, start, end, parent, solve, error, attrs) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        if error is not None:
            entry["errors"][error] += 1
        if attrs is not None:
            entry["attrs"].append(attrs)
    return totals
