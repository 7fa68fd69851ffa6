"""Run configuration: a single INI file with named sections.

The README's "Config schema (version 1)" lists every section and key
with its default; ``KEYS`` below is the same table, and any other
section or key is a ConfigError.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

import numpy as np

from . import benchmarks
from .errors import ConfigError
from .fem import Material, Mesh, assemble_parametric
from .objective import UpdatingProblem, evaluate_full
from .studies import STRATEGIES, perturbed_targets
from .trustregion import TrustRegionConfig

SCHEMA_VERSION = 1
UNSUPPORTED_STRATEGIES = ("BB",)
_REQUIRED = object()  # default of a key that must be given

# accepted keys per section; every [material.<name>] shares one set
KEYS = {
    "run": (
        "schema_version", "benchmark", "refine", "modes", "weight_mode",
        "custom_weights", "lanczos_tol", "criticality_tol", "seed", "strategy",
        "start", "record_wall_time", "output_dir",
    ),
    "trust_region": tuple(f.name for f in fields(TrustRegionConfig)),
    "targets": ("mode", "values", "noise", "noise_seed"),
    "noise_study": ("deltas", "trials", "seed"),
    "material.<name>": (
        "region", "young", "density", "poisson", "free", "young_bounds",
        "density_bounds",
    ),
}


@dataclass
class RunSetup:
    """Everything a command needs, resolved from one config file."""

    problem: UpdatingProblem
    start: np.ndarray  # physical units
    tr_config: TrustRegionConfig
    strategy: str
    output_dir: str
    record_wall_time: bool
    benchmark: str
    parameter_names: list
    true_values: np.ndarray  # None when targets are measured
    noise_deltas: np.ndarray
    noise_trials: int
    noise_seed: int
    assembly_seconds: float


def _floats(text, section, key, expected=None):
    try:
        vals = np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError("not a list of numbers: %r" % text, section, key) from exc
    if expected is not None and vals.size != expected:
        raise ConfigError(
            "expected %d values, got %d" % (expected, vals.size), section, key
        )
    return vals


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError("missing required key", section, key)
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return parser.getboolean(section, key)
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError("cannot parse %r" % raw, section, key) from exc


def _apply_material_overrides(parser, materials, need_region):
    by_name = {m.name: m for m in materials}
    out = list(materials)
    for section in parser.sections():
        if not section.startswith("material."):
            continue
        name = section[len("material.") :]
        if need_region:
            rid = _get(parser, section, "region", int, _REQUIRED)
            while len(out) < rid:
                out.append(None)
            mat = Material(name, young=1.0, density=1.0, poisson=0.0)
            out[rid - 1] = mat
        else:
            mat = by_name.get(name)
            if mat is None:
                raise ConfigError(
                    "benchmark has no region named %r (have: %s)"
                    % (name, ", ".join(sorted(by_name))),
                    section,
                )
        mat.young = _get(parser, section, "young", float, mat.young)
        mat.density = _get(parser, section, "density", float, mat.density)
        mat.poisson = _get(parser, section, "poisson", float, mat.poisson)
        if parser.has_option(section, "free"):
            props = parser.get(section, "free").split()
            bad = set(props) - {"young", "density"}
            if bad:
                raise ConfigError(
                    "unknown free properties %s" % sorted(bad), section, "free"
                )
            mat.free_young = "young" in props
            mat.free_density = "density" in props
        for prop in ("young", "density"):
            key = prop + "_bounds"
            if parser.has_option(section, key):
                bounds = _floats(parser.get(section, key), section, key, 2)
                setattr(mat, key, tuple(bounds))
            value, (lower, upper) = getattr(mat, prop), getattr(mat, key)
            if not 0.0 < value < np.inf:
                raise ConfigError("must be positive and finite, got %r" % value, section, prop)
            if getattr(mat, "free_" + prop) and not 0.0 < lower < upper < np.inf:
                raise ConfigError(
                    "a free property needs finite bounds 0 < lower < upper, got %r %r"
                    % (lower, upper), section, key,
                )
    if need_region:
        for rid, mat in enumerate(out, start=1):
            if mat is None:
                raise ConfigError(
                    "external mesh: no material section declares region %d" % rid
                )
    return out


def load_config(path):
    """Parse a config file into a ready-to-run RunSetup."""
    import time

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % exc)

    for section in parser.sections():
        known = KEYS.get("material.<name>" if section.startswith("material.") else section)
        if known is None:
            raise ConfigError("unknown section", section)
        for key in parser.options(section):
            if key not in known:
                raise ConfigError("unknown key", section, key)
    if not parser.has_section("run"):
        raise ConfigError("missing section", "run")
    version = _get(parser, "run", "schema_version", int, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            "unsupported schema_version %d (expected %d)" % (version, SCHEMA_VERSION),
            "run",
            "schema_version",
        )

    bench = _get(parser, "run", "benchmark", str, _REQUIRED)
    refine = _get(parser, "run", "refine", int, 1)
    t0 = time.perf_counter()
    if bench.startswith("mesh:"):
        mesh_path = bench[len("mesh:") :].strip()
        try:
            mesh = Mesh.load(mesh_path)
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot load mesh %r: %s" % (mesh_path, exc), "run", "benchmark")
        materials = _apply_material_overrides(parser, [], need_region=True)
        if len(materials) != mesh.n_regions:
            raise ConfigError(
                "mesh has %d regions, config declares %d"
                % (mesh.n_regions, len(materials))
            )
    elif bench in ("arch", "vault"):
        mesh, materials = benchmarks.benchmark(bench, refine)
        materials = _apply_material_overrides(parser, materials, need_region=False)
    else:
        raise ConfigError(
            "unknown benchmark %r (arch, vault, or mesh:<path>)" % bench,
            "run",
            "benchmark",
        )

    try:
        pencil, box, current = assemble_parametric(mesh, materials)
    except ValueError as exc:
        raise ConfigError("cannot assemble model: %s" % exc)
    assembly_seconds = time.perf_counter() - t0
    if pencil.n_parameters == 0:
        raise ConfigError("no free parameters: mark some properties free")

    s = _get(parser, "run", "modes", int, 5)
    if s < 1:
        raise ConfigError("modes must be positive", "run", "modes")
    weight_mode = _get(parser, "run", "weight_mode", str, "uniform")
    custom = None
    if weight_mode == "custom":
        custom = _floats(
            _get(parser, "run", "custom_weights", str, _REQUIRED),
            "run",
            "custom_weights",
            s,
        )
    elif weight_mode not in ("uniform", "relative"):
        raise ConfigError("unknown weight_mode %r" % weight_mode, "run", "weight_mode")
    tau = _get(parser, "run", "lanczos_tol", float, 1e-5)
    eps = _get(parser, "run", "criticality_tol", float, 1e-4)
    seed = _get(parser, "run", "seed", int, 0)
    strategy = _get(parser, "run", "strategy", str, "RM")
    if strategy in UNSUPPORTED_STRATEGIES:
        raise ConfigError(
            "strategy %s is not supported by this tool" % strategy, "run", "strategy"
        )
    if strategy not in STRATEGIES:
        raise ConfigError(
            "unknown strategy %r (have: %s)" % (strategy, ", ".join(STRATEGIES)),
            "run",
            "strategy",
        )

    start_text = _get(parser, "run", "start", str, "midpoint")
    if start_text == "midpoint":
        start = box.midpoint()
    else:
        start = _floats(start_text, "run", "start", pencil.n_parameters)
        if not box.contains(start):
            raise ConfigError("start lies outside the feasible box", "run", "start")

    # targets
    if not parser.has_section("targets"):
        raise ConfigError("missing section", "targets")
    mode = _get(parser, "targets", "mode", str, _REQUIRED)
    true_values = None
    if mode == "generate":
        true_values = _floats(
            _get(parser, "targets", "values", str, _REQUIRED),
            "targets",
            "values",
            pencil.n_parameters,
        )
        if not box.contains(true_values):
            raise ConfigError("values lie outside the feasible box", "targets", "values")
        gen_problem = UpdatingProblem(
            pencil, box, measured=np.arange(1.0, s + 1.0), weights="uniform",
            lanczos_tol=tau, criticality_tol=eps, seed=seed,
        )
        measured = evaluate_full(gen_problem, true_values).frequencies
        noise = _get(parser, "targets", "noise", float, 0.0)
        if noise > 0.0:
            rng = np.random.default_rng(
                [_get(parser, "targets", "noise_seed", int, 1), 0]
            )
            measured = perturbed_targets(measured, noise, rng)
    elif mode == "measured":
        measured = _floats(
            _get(parser, "targets", "values", str, _REQUIRED), "targets", "values", s
        )
    else:
        raise ConfigError("mode must be 'generate' or 'measured'", "targets", "mode")

    try:
        problem = UpdatingProblem(
            pencil,
            box,
            measured=measured,
            weights=weight_mode if custom is None else custom,
            lanczos_tol=tau,
            criticality_tol=eps,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError("invalid problem: %s" % exc)

    tr_config = TrustRegionConfig(**{
        f.name: _get(parser, "trust_region", f.name, type(f.default), f.default)
        for f in fields(TrustRegionConfig)
    })

    deltas = _floats(
        _get(parser, "noise_study", "deltas", str, "1e-4 1e-3 1e-2 1e-1 1"),
        "noise_study",
        "deltas",
    )
    if deltas.size == 0 or not np.all(np.isfinite(deltas) & (deltas > 0.0)):
        raise ConfigError("needs positive, finite noise levels", "noise_study", "deltas")
    trials = _get(parser, "noise_study", "trials", int, 5)
    if trials < 1:
        raise ConfigError("needs at least one trial, got %d" % trials, "noise_study", "trials")
    noise_seed = _get(parser, "noise_study", "seed", int, 2024)

    return RunSetup(
        problem=problem,
        start=start,
        tr_config=tr_config,
        strategy=strategy,
        output_dir=_get(parser, "run", "output_dir", str, "out"),
        record_wall_time=_get(parser, "run", "record_wall_time", bool, False),
        benchmark=bench,
        parameter_names=list(pencil.names),
        true_values=true_values,
        noise_deltas=deltas,
        noise_trials=trials,
        noise_seed=noise_seed,
        assembly_seconds=assembly_seconds,
    )
