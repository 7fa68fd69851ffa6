"""Run configuration: a single INI file with named sections.

The README's "Config schema (version 1)" lists every section and key
with its default; ``KEYS`` below is the same table with each key's
reader, and any other section or key is a ConfigError.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, replace

import numpy as np

from . import benchmarks
from .errors import ConfigError
from .fem import Material, Mesh, assemble_parametric
from .objective import UpdatingProblem, evaluate_full, make_weights
from .studies import STRATEGIES, perturbed_targets

SCHEMA_VERSION = 1
_REQUIRED = object()  # default of a key that must be given
MAX_TRIALS = 10_000  # 50,000 solves at the five default noise levels, more than any study needs


def _floats(text):
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _start(text):
    return text if text == "midpoint" else _floats(text)


def _bounds(text):
    lower, upper = _floats(text)
    return lower, upper


def _free(text):
    if set(text.split()) - {"young", "density"}:
        raise ValueError("only young and density can be free")
    return {"free_" + prop: prop in text.split() for prop in ("young", "density")}


def _positive(below=np.inf):
    rule = "must be positive and finite" + ("" if below == np.inf else " and below %g" % below)
    def read(text):
        if not 0.0 < float(text) < below:  # NaN fails too
            raise ValueError(rule)
        return float(text)
    return read


def _int_from(low, high=np.inf):
    rule = "must be an integer >= %d" % low + ("" if high == np.inf else " and <= %d" % high)
    def read(text):
        if not low <= int(text) <= high:
            raise ValueError(rule)
        return int(text)
    return read


# section -> key -> (reader, default), one table for every [material.<name>];
# None: unless given, the value comes from the benchmark or is not used
KEYS = {
    "run": dict(
        schema_version=(int, SCHEMA_VERSION), benchmark=(str, _REQUIRED), refine=(int, 1),
        modes=(_int_from(1), 5), weight_mode=(str, "uniform"), custom_weights=(_floats, None),
        lanczos_tol=(_positive(1e-2), 1e-5), criticality_tol=(_positive(), 1e-4),
        seed=(_int_from(0), 0), strategy=(str, "RM"), start=(_start, "midpoint"),
        record_wall_time=(bool, False), output_dir=(str, "out"),
    ),
    "trust_region": dict(max_outer=(_int_from(0), 100)),
    "targets": dict(
        mode=(str, _REQUIRED), values=(_floats, _REQUIRED), noise=(float, 0.0),
        noise_seed=(_int_from(0), 1),
    ),
    "noise_study": dict(
        deltas=(_floats, (1e-4, 1e-3, 1e-2, 1e-1, 1.0)), trials=(_int_from(1, MAX_TRIALS), 5),
        seed=(_int_from(0), 2024),
    ),
    "material.<name>": dict(
        region=(int, None), young=(float, None), density=(float, None),
        poisson=(float, None), free=(_free, None), young_bounds=(_bounds, None),
        density_bounds=(_bounds, None),
    ),
}


@dataclass
class RunSetup:
    """Everything a command needs, resolved from one config file."""

    problem: UpdatingProblem
    start: np.ndarray  # physical units
    max_outer: int
    strategy: str
    output_dir: str
    record_wall_time: bool
    benchmark: str
    true_values: np.ndarray  # None when targets are measured
    target_noise: float  # [targets] noise, already in the generated targets
    noise_deltas: np.ndarray
    noise_trials: int
    noise_seed: int
    assembly_seconds: float


def _read(parser, section):
    """The values of one section: each key given is cast by its reader,
    every other key takes its default, and an unknown section or key is
    an error."""
    table = KEYS.get("material.<name>" if section.startswith("material.") else section)
    if table is None:
        raise ConfigError("unknown section", section)
    given = dict(parser.items(section)) if parser.has_section(section) else {}
    values = {}
    for key, text in given.items():
        if key not in table:
            raise ConfigError("unknown key", section, key)
        reader = table[key][0]
        try:  # the parser reads booleans, as 'yes' or 'off'
            values[key] = parser.getboolean(section, key) if reader is bool else reader(text)
        except ValueError as exc:
            raise ConfigError("cannot read %r: %s" % (text, exc), section, key) from exc
    for key, (reader, default) in table.items():
        if key not in values and default is _REQUIRED:
            raise ConfigError("missing required key", section, key)
        values.setdefault(key, default)
    return values


def _count(values, expected, section, key):
    if values.size != expected:
        raise ConfigError("expected %d values, got %d" % (expected, values.size), section, key)
    return values


def _materials(conf, mesh, materials):
    """The region materials: each section's keys laid in one step onto its
    benchmark material, by name, or for an external mesh (``materials``
    None) onto one with no values yet (NaN) at its ``region``, each region
    once. A fixed property reads its value, a free one its bounds; the
    other key, or a value read that nothing gave, is an error."""
    out = [None] * mesh.n_regions if materials is None else list(materials)
    rids = {m.name: rid for rid, m in enumerate(materials or (), start=1)}
    for section, values in conf.items():
        if not section.startswith("material."):
            continue
        name, rid = section[len("material.") :], values.pop("region")
        if materials is None:  # the section declares its region's material
            if rid is None or not (1 <= rid <= len(out) and out[rid - 1] is None):
                raise ConfigError("needs an id 1..%d of a region no other section declares, "
                                  "got %r" % (len(out), rid), section, "region")
        elif rid is not None:
            raise ConfigError("only applies to an external mesh", section, "region")
        elif name not in rids:
            raise ConfigError("benchmark has no region named %r (have: %s)"
                              % (name, ", ".join(sorted(rids))), section)
        rid = rids.get(name, rid)
        given = {key: value for key, value in values.items() if value is not None}
        given.update(given.pop("free", {}))
        base = out[rid - 1] or Material(name, young=np.nan, density=np.nan, poisson=np.nan)
        out[rid - 1] = mat = replace(base, **given)
        for prop in ("young", "density"):
            free = getattr(mat, "free_" + prop)
            read, unread = (prop + "_bounds", prop) if free else (prop, prop + "_bounds")
            if unread in given:
                raise ConfigError("not read: %s is %s, the run reads %s"
                                  % (prop, "free" if free else "fixed", read), section, unread)
            value = np.atleast_1d(getattr(mat, read))
            if not np.all(np.less([0.0, *value], [*value, np.inf])):  # NaN (not given) fails too
                raise ConfigError("needs 0 < %s < inf, got %s" % ("lower < upper" if free else "value",
                                  " ".join("%g" % v for v in value)), section, read)
        if not 0.0 <= mat.poisson < 0.5:  # NaN fails too
            raise ConfigError("must lie in [0, 0.5), got %r" % mat.poisson, section, "poisson")
    if None in out:
        raise ConfigError("external mesh: no material section declares region %d"
                          % (out.index(None) + 1), "run", "benchmark")
    return out


def load_config(path):
    """Parse a config file into a ready-to-run RunSetup."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % " ".join(str(exc).split()))
    sections = dict.fromkeys(["run", "targets", "trust_region", "noise_study", *parser.sections()])
    conf = {section: _read(parser, section) for section in sections}
    run, targets, study = conf["run"], conf["targets"], conf["noise_study"]
    if run["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version %d (expected %d)"
                          % (run["schema_version"], SCHEMA_VERSION), "run", "schema_version")

    bench = run["benchmark"]
    t0 = time.perf_counter()
    if bench.startswith("mesh:"):
        if parser.has_option("run", "refine"):  # the mesh file fixes its refinement
            raise ConfigError("only applies to a built-in benchmark", "run", "refine")
        mesh_path = bench[len("mesh:") :].strip()
        try:
            mesh, materials = Mesh.load(mesh_path), None
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot load mesh %r: %s" % (mesh_path, exc), "run", "benchmark")
    elif bench in benchmarks.GENERATORS:
        try:
            mesh, materials = benchmarks.benchmark(bench, run["refine"])
        except ValueError as exc:  # the refinement bound, checked before any mesh array
            raise ConfigError(str(exc), "run", "refine")
    else:
        raise ConfigError("unknown benchmark %r (%s, or mesh:<path>)"
                          % (bench, ", ".join(benchmarks.GENERATORS)), "run", "benchmark")
    materials = _materials(conf, mesh, materials)
    try:
        pencil, box, current = assemble_parametric(mesh, materials)
    except ValueError as exc:
        raise ConfigError("cannot assemble model: %s" % exc, "run", "benchmark")
    if run["modes"] > pencil.n:
        raise ConfigError("exceeds the model's %d free dofs" % pencil.n, "run", "modes")
    assembly_seconds = time.perf_counter() - t0
    if pencil.n_parameters == 0:
        raise ConfigError("no free parameters: mark some properties free")

    s = run["modes"]
    custom = run["weight_mode"] == "custom"
    if custom != (run["custom_weights"] is not None):
        raise ConfigError("needed with weight_mode = custom, and only there", "run", "custom_weights")
    key = "custom_weights" if custom else "weight_mode"
    weights = _count(run[key], s, "run", key) if custom else run[key]
    try:  # the weights' own rule, before any target exists
        make_weights(weights, np.ones(s))
    except ValueError as exc:
        raise ConfigError(str(exc), "run", key)
    strategy = run["strategy"]
    if strategy not in STRATEGIES:
        raise ConfigError("strategy %s is not supported by this tool (have: %s)"
                          % (strategy, ", ".join(STRATEGIES)), "run", "strategy")

    start = box.midpoint() if isinstance(run["start"], str) else run["start"]
    if not box.contains(_count(start, pencil.n_parameters, "run", "start")):
        raise ConfigError("start lies outside the feasible box", "run", "start")

    def make_problem(measured, weights="uniform"):
        try:
            return UpdatingProblem(pencil, box, measured=measured, weights=weights,
                                   lanczos_tol=run["lanczos_tol"],
                                   criticality_tol=run["criticality_tol"], seed=run["seed"])
        except ValueError as exc:  # the targets' rule: the weights passed theirs
            raise ConfigError(str(exc), "targets", "values")

    mode, noise = targets["mode"], targets["noise"]
    if mode not in ("generate", "measured"):
        raise ConfigError("mode must be 'generate' or 'measured'", "targets", "mode")
    # measured values carry their own noise, and noise 0 draws no numbers
    for key, reads, rule in (("noise", mode == "generate", ""),
                             ("noise_seed", mode == "generate" and noise != 0.0, " with noise > 0")):
        if parser.has_option("targets", key) and not reads:
            raise ConfigError("only applies to mode = generate" + rule, "targets", key)
    true_values = None
    if mode == "generate":
        true_values = _count(targets["values"], pencil.n_parameters, "targets", "values")
        if not box.contains(true_values):
            raise ConfigError("values lie outside the feasible box", "targets", "values")
        if not 0.0 <= noise <= 1.0:  # NaN fails too; above 1 a factor 1 + noise * u can be < 0
            raise ConfigError("must be nonnegative and finite, at most 1, got %r" % noise, "targets", "noise")
        measured = evaluate_full(make_problem(np.arange(1.0, s + 1.0)), true_values).frequencies
        if noise > 0.0:
            rng = np.random.default_rng([targets["noise_seed"], 0])
            measured = perturbed_targets(measured, noise, rng)
    else:
        measured = _count(targets["values"], s, "targets", "values")

    deltas = np.array(study["deltas"])
    if deltas.size == 0 or not np.all((deltas > 0.0) & (deltas <= 1.0)):
        raise ConfigError("needs noise levels in (0, 1]", "noise_study", "deltas")

    return RunSetup(
        problem=make_problem(measured, weights),
        start=start,
        max_outer=conf["trust_region"]["max_outer"],
        strategy=strategy,
        output_dir=run["output_dir"],
        record_wall_time=run["record_wall_time"],
        benchmark=bench,
        true_values=true_values,
        target_noise=targets["noise"],
        noise_deltas=deltas,
        noise_trials=study["trials"],
        noise_seed=study["seed"],
        assembly_seconds=assembly_seconds,
    )
