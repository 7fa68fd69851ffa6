"""INI configuration loading, study writers, and the command line."""

import configparser
import contextlib
import csv
import io
import os
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from femupdate import (ConfigError, NotPositiveDefiniteError, NumericalError, benchmarks, load_config,
                       studies)
from femupdate.cli import main
from femupdate.config import KEYS
from femupdate.objective import make_weights
from femupdate.studies import run_noise_study, run_strategy_comparison, run_update

BASE = """
[run]
schema_version = 1
benchmark = arch
modes = 5
weight_mode = uniform
seed = 0
strategy = RM
start = 2000 1100 1100
output_dir = {out}

[targets]
mode = generate
values = 5000 2200 4800
"""

TWO_PARAM = """
[run]
benchmark = arch
modes = 5
strategy = {strategy}
output_dir = {out}

[material.arch]
free = young density
young_bounds = 1000 9000
density_bounds = 1000 3000

[material.pier_left]
free =

[material.pier_right]
free =

[targets]
mode = generate
values = 3250 1800
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_full_round_trip(tmp_path):
    path = write(tmp_path, BASE.format(out=tmp_path / "out"))
    setup = load_config(path)
    assert setup.benchmark == "arch"
    assert setup.strategy == "RM"
    assert setup.problem.pencil.names == [
        "young:pier_left", "density:pier_left", "young:pier_right",
    ]
    assert np.array_equal(setup.start, [2000.0, 1100.0, 2000.0]) or np.array_equal(
        setup.start, [2000.0, 1100.0, 1100.0]
    )
    assert setup.problem.s == 5
    assert np.array_equal(setup.true_values, [5000.0, 2200.0, 4800.0])
    assert np.all(np.diff(setup.problem.measured) > 0)
    assert setup.record_wall_time is False


def test_material_override_reduces_parameters(tmp_path):
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    setup = load_config(path)
    assert setup.problem.pencil.names == ["young:arch", "density:arch"]
    assert np.array_equal(setup.start, setup.problem.box.midpoint())


MEASURED = BASE.replace("mode = generate", "mode = measured").replace(
    "values = 5000 2200 4800", "values = 18 28 49 50 65"
)

# the trust region's radius policy and inner tolerance, now module constants
FORMER_TR_KEYS = dict(eta1="0.05", eta2="0.9", gamma2="0.5", growth="2.0", delta0="0.1",
                      delta_max="1.0", inner_tol="1e-8")


def test_config_error_cases(tmp_path):
    mesh_path = tmp_path / "arch.mesh"
    benchmarks.benchmark("arch")[0].save(mesh_path)
    saved = mesh_path.read_text()
    (tmp_path / "free.mesh").write_text(saved[: saved.index("constraints")] + "constraints 0\n")
    # an external section gives each value the run reads: a fixed
    # property's value, a free one's bounds, and the Poisson ratio
    external = (
        "[run]\nbenchmark = mesh:%s\nmodes = 5\n\n"
        "[targets]\nmode = measured\nvalues = 18 28 49 50 65\n\n"
        "[material.arch]\nregion = 1\nfree = young\ndensity = 1800\npoisson = 0.2\n\n"
        "[material.pier_left]\nregion = 2\nyoung = 5000\ndensity = 2200\npoisson = 0.2\n\n"
        "[material.pier_right]\nregion = 3\nyoung = 4800\ndensity = 2100\npoisson = 0.2\n"
        % mesh_path
    )
    fixed = external.replace("free = young\n", "young = 3250\n")
    cases = [
        ("missing_targets", BASE.replace("[targets]", "[nottargets]"), None),
        ("bad_strategy", BASE.replace("strategy = RM", "strategy = BB"), None),
        ("bad_benchmark", BASE.replace("benchmark = arch", "benchmark = tower"), None),
        ("bad_weights", BASE.replace("weight_mode = uniform", "weight_mode = wild"), None),
        ("bad_schema", BASE.replace("schema_version = 1", "schema_version = 9"), None),
        (
            "start_outside",
            BASE.replace("start = 2000 1100 1100", "start = 10 1100 1100"),
            None,
        ),
        (
            "values_outside",
            BASE.replace("values = 5000 2200 4800", "values = 99999 2200 4800"),
            None,
        ),
        ("bad_floats", BASE.replace("values = 5000 2200 4800", "values = a b c"), None),
        # material values: every region, fixed or free
        ("negative_young", BASE + "[material.arch]\nyoung = -100\n", r"\[material\.arch\] young:"),
        ("zero_young", MEASURED + "[material.arch]\nyoung = 0\n", r"\[material\.arch\] young:"),
        ("zero_density", BASE + "[material.arch]\ndensity = 0\n", r"\[material\.arch\] density:"),
        (
            "fixed_density_negative",
            BASE + "[material.pier_right]\ndensity = -1\n",
            r"\[material\.pier_right\] density:",
        ),
        # bounds of a free property: finite, 0 < lower < upper
        ("free_unbounded", BASE + "[material.arch]\nfree = young\n", r"\[material\.arch\] young_bounds:"),
        (
            "bounds_at_zero",
            BASE + "[material.pier_left]\nyoung_bounds = 0 9000\n",
            r"\[material\.pier_left\] young_bounds:",
        ),
        (
            "bounds_reversed",
            BASE + "[material.pier_left]\ndensity_bounds = 3000 1000\n",
            r"\[material\.pier_left\] density_bounds:",
        ),
        (
            "bounds_infinite",
            BASE + "[material.pier_right]\nyoung_bounds = 1000 inf\n",
            r"\[material\.pier_right\] young_bounds:",
        ),
        ("external_unbounded", external, r"\[material\.arch\] young_bounds:"),
        # each property reads the one key its freedom selects: a key it does
        # not read, or a value it reads that an external section leaves out,
        # names that key
        ("free_young_given", BASE + "[material.pier_left]\nyoung = 9000\n",
         r"^\[material\.pier_left\] young: not read: young is free"),
        ("fixed_bounds_given", BASE + "[material.arch]\nyoung_bounds = 1000 2000\n",
         r"^\[material\.arch\] young_bounds: not read: young is fixed"),
        ("external_free_young_given", external.replace("free = young\n", "free = young\nyoung = 3250\n"),
         r"^\[material\.arch\] young: not read: "),
        ("external_no_young", fixed.replace("young = 3250\n", ""), r"^\[material\.arch\] young: "),
        ("external_no_density", fixed.replace("density = 2200\n", ""),
         r"^\[material\.pier_left\] density: "),
        ("external_no_poisson", fixed.replace("density = 2100\npoisson = 0.2\n", "density = 2100\n"),
         r"^\[material\.pier_right\] poisson: "),
        # an external mesh that cannot make a model names the benchmark key
        (
            "external_undeclared_region",
            fixed[: fixed.index("[material.pier_right]")],
            r"^\[run\] benchmark: external mesh: no material section declares region 3$",
        ),
        (
            "external_unconstrained",
            fixed.replace("arch.mesh", "free.mesh"),
            r"^\[run\] benchmark: cannot assemble model: mesh has no constrained dofs",
        ),
        # an external mesh's region ids: 1..3, each declared once
        *[
            ("region_" + name, fixed.replace(old, new),
             r"^\[material\.%s\] region: " % section)
            for name, old, new, section in (
                ("zero", "region = 1", "region = 0", "arch"),
                ("negative", "region = 3", "region = -1", "pier_right"),
                ("twice", "region = 3", "region = 2", "pier_right"),
                ("beyond", "region = 3", "region = 4", "pier_right"),
            )
        ],
        # rules on the weights and the targets, checked by the problem
        *[
            ("weights_" + name,
             BASE.replace("weight_mode = uniform", "weight_mode = custom\ncustom_weights = " + weights),
             r"^\[run\] custom_weights: ")
            for name, weights in (("zero", "0 0 0 0 0"), ("negative", "1 1 -1 1 1"))
        ],
        *[
            ("measured_" + name, MEASURED.replace("modes = 5", "modes = 3").replace(
                "values = 18 28 49 50 65", "values = " + values), r"^\[targets\] values: ")
            for name, values in (("descending", "3 2 1"), ("infinite", "1 2 inf"))
        ],
        # keys the run would not read
        (
            "custom_weights_uniform",
            BASE.replace("seed = 0", "seed = 0\ncustom_weights = 1 2 3 4 5"),
            r"^\[run\] custom_weights: ",
        ),
        (
            "region_builtin",
            BASE + "[material.arch]\nregion = 7\n",
            r"^\[material\.arch\] region: ",
        ),
        (
            "refine_external",
            external.replace("modes = 5", "modes = 5\nrefine = 3"),
            r"^\[run\] refine: ",
        ),
        # refine and seeds below their least value
        ("refine_zero", BASE.replace("modes = 5", "modes = 5\nrefine = 0"), r"^\[run\] refine: "),
        ("run_seed", BASE.replace("seed = 0", "seed = -1"), r"^\[run\] seed: "),
        (
            "noise_seed",
            BASE + "noise = 0.01\nnoise_seed = -3\n",
            r"^\[targets\] noise_seed: ",
        ),
        # a seed that draws nothing: noise 0 perturbs no target
        ("noise_seed_without_noise", BASE + "noise_seed = 7\n",
         r"^\[targets\] noise_seed: only applies to mode = generate with noise > 0$"),
        ("study_seed", BASE + "[noise_study]\nseed = -5\n", r"^\[noise_study\] seed: "),
        # run tolerances: positive and finite, NaN included; lanczos_tol below
        # 1e-2 (at 0.1 and 0.7 the Ritz values it accepts belong to other modes)
        *[
            ("%s_%s" % (key, value), BASE.replace("seed = 0", "seed = 0\n%s = %s" % (key, value)),
             r"^\[run\] %s: " % key)
            for key, values in (("lanczos_tol", ("-1", "nan", "0.1", "0.7", "1", "10")),
                                ("criticality_tol", ("-1", "nan")))
            for value in values
        ],
        # relative noise above 1 can make a target negative
        *[
            ("noise_" + value, BASE + "noise = %s\n" % value, r"^\[targets\] noise: ")
            for value in ("1.5", "2", "inf")
        ],
        # Poisson ratio in [0, 0.5), every region
        *[
            ("poisson_%s_%s" % (name, value), BASE + "[material.%s]\npoisson = %s\n" % (name, value),
             r"^\[material\.%s\] poisson: " % name)
            for name, value in (("arch", "0.5"), ("arch", "-0.1"), ("pier_left", "0.7"),
                                ("pier_right", "nan"), ("arch", "inf"))
        ],
        # unknown sections and keys
        ("unknown_tr_key", BASE + "[trust_region]\ndelta_0 = 5\n", r"\[trust_region\] delta_0:"),
        (
            "removed_tr_key",
            BASE + "[trust_region]\ninner_max_iter = 1\n",
            r"\[trust_region\] inner_max_iter:",
        ),
        ("unknown_section", BASE + "[run2]\nmodes = 3\n", r"\[run2\]: unknown section"),
        ("unknown_run_key", BASE.replace("modes = 5", "mode = 5"), r"\[run\] mode:"),
        (
            "unknown_material_key",
            BASE + "[material.arch]\nyoungs = 3000\n",
            r"\[material\.arch\] youngs:",
        ),
        # [trust_region] takes only max_outer >= 0: even the former keys'
        # defaults are unknown keys now
        ("tr_max_outer", BASE + "[trust_region]\nmax_outer = -1\n", r"^\[trust_region\] max_outer: "),
        *[
            ("tr_" + key, BASE + "[trust_region]\n%s = %s\n" % (key, value),
             r"^\[trust_region\] %s: unknown key" % key)
            for key, value in FORMER_TR_KEYS.items()
        ],
        # noise-study values the study cannot use
        *[
            ("noise_" + key, BASE + "[noise_study]\n%s = %s\n" % (key, value),
             r"\[noise_study\] %s:" % key)
            for key, value in (
                ("deltas", "0 1e-3"), ("deltas", "-1e-3"), ("deltas", "1e-3 inf"),
                ("deltas", "nan"), ("deltas", ""), ("deltas", "0.01 2"), ("deltas", "1.0001"),
                ("trials", "0"), ("trials", "-2"), ("trials", "10001"),
            )
        ],
    ]
    for name, text, match in cases:
        path = write(tmp_path, text.format(out=tmp_path / "out"), name + ".ini")
        with pytest.raises(ConfigError, match=match):
            load_config(path)


@pytest.mark.parametrize("section, key", [
    (section, key)
    for section, table in KEYS.items()
    for key, (reader, _) in table.items()
    if reader is not str
] + [("trust_region", key) for key in FORMER_TR_KEYS])  # unknown keys, whatever the value
def test_config_parse_error_names_the_key(tmp_path, section, key):
    parser = configparser.ConfigParser()
    parser.read_string(BASE.format(out=tmp_path / "out"))
    section = section.replace("<name>", "arch")
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, "abc")
    path = tmp_path / "run.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError, match="^" + re.escape("[%s] %s: " % (section, key))):
        load_config(str(path))


def test_config_unknown_material_section(tmp_path):
    text = BASE + "\n[material.nave]\nyoung = 1\n"
    path = write(tmp_path, text.format(out=tmp_path / "out"))
    with pytest.raises(ConfigError, match="nave"):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_measured_targets_mode(tmp_path):
    text = BASE.format(out=tmp_path / "out").replace(
        "mode = generate", "mode = measured"
    ).replace("values = 5000 2200 4800", "values = 18 28 49 50 65")
    setup = load_config(write(tmp_path, text))
    assert setup.true_values is None
    assert np.array_equal(setup.problem.measured, [18.0, 28.0, 49.0, 50.0, 65.0])


def test_external_mesh_matches_builtin(tmp_path, arch, arch_targets):
    mesh, materials, pencil, _, _ = arch
    mesh_path = tmp_path / "arch.mesh"
    mesh.save(mesh_path)
    sections = []
    for rid, mat in enumerate(materials, start=1):
        # each section gives what its region reads: a free property's
        # bounds, a fixed one's value
        free = [prop for prop in ("young", "density") if getattr(mat, "free_" + prop)]
        reads = "".join("%s_bounds = %r %r\n" % (prop, *getattr(mat, prop + "_bounds")) if prop in free
                        else "%s = %r\n" % (prop, getattr(mat, prop)) for prop in ("young", "density"))
        sections.append("[material.%s]\nregion = %d\npoisson = %r\nfree = %s\n%s"
                        % (mat.name, rid, mat.poisson, " ".join(free), reads))
    text = (
        "[run]\nbenchmark = mesh:%s\nmodes = 5\noutput_dir = %s\n\n"
        "[targets]\nmode = generate\nvalues = 5000 2200 4800\n\n%s"
        % (mesh_path, tmp_path / "out", "\n".join(sections))
    )
    setup = load_config(write(tmp_path, text))
    assert setup.problem.pencil.names == pencil.names
    assert np.allclose(setup.problem.measured, arch_targets, rtol=1e-9)


def test_run_update_writes_outputs(tmp_path):
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    setup = load_config(path)
    result, iterations, status = run_update(setup)
    assert result.converged and status == "converged"
    assert iterations == result.n_outer
    out = tmp_path / "out"
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["k", "phi"]
    assert rows[0][-1] == "wall_s"
    assert len(rows) == 2 + result.n_outer  # header + k=0 + iterations
    assert all(row[-1] == "0.0" for row in rows[1:])  # wall time zeroed
    summary = (out / "summary.txt").read_text()
    assert "converged = true" in summary
    assert "parameter:young:arch" in summary
    assert "rel_error:max" in summary


def test_run_update_baseline_strategy(tmp_path):
    path = write(tmp_path, TWO_PARAM.format(strategy="AD", out=tmp_path / "outad"))
    setup = load_config(path)
    result, iterations, status = run_update(setup)
    assert result.converged and status == "converged"
    assert iterations == result.iterations
    assert not (tmp_path / "outad" / "convergence.csv").exists()
    assert "strategy = AD" in (tmp_path / "outad" / "summary.txt").read_text()


def test_comparison_rows_and_unsupported_strategy(tmp_path):
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "cmp"))
    setup = load_config(path)
    results = run_strategy_comparison(setup)
    with open(tmp_path / "cmp" / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    strategies = [row[0] for row in rows[1:]]
    assert strategies == ["RM", "AD", "A", "BB"]
    bb = rows[-1]
    assert bb[1] == "unsupported"
    assert all(cell == "" for cell in bb[2:])
    facts = {row[0]: int(row[4]) for row in rows[1:-1]}
    assert facts["RM"] < facts["AD"] < facts["A"]
    assert results["RM"].converged and results["AD"].converged
    assert results["A"].value <= 1e-6  # A stalls on FD noise but lands close
    status = {row[0]: row[1] for row in rows[1:-1]}
    assert status["RM"] == "converged"


def test_comparison_rows_do_not_depend_on_the_strategy_order(tmp_path, monkeypatch):
    tables = []
    for order in (studies.STRATEGIES, studies.STRATEGIES[::-1]):
        monkeypatch.setattr(studies, "STRATEGIES", order)
        out = tmp_path / "".join(order)
        setup = load_config(write(tmp_path, TWO_PARAM.format(strategy="RM", out=out)))
        run_strategy_comparison(setup)
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:-1]] == list(order)
        # every column but the timings wall_s and assembly_s
        tables.append(sorted(row[:-2] for row in rows[1:]))
    assert tables[0] == tables[1]


def test_cli_update_and_determinism(tmp_path, capsys):
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "o1"))
    assert main(["update", path]) == 0
    assert main(["update", path, "--output-dir", str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "convergence.csv").read_bytes()
    b = (tmp_path / "o2" / "convergence.csv").read_bytes()
    assert a == b
    out = capsys.readouterr().out
    assert "converged" in out


@pytest.mark.parametrize("command, files", [
    ("update", ["convergence.csv", "summary.txt"]),
    ("compare", ["comparison.csv"]),
    ("noise-study", ["noise_study.csv", "noise_summary.txt"]),
])
def test_cli_output_dir_overrides_config(tmp_path, command, files):
    text = TWO_PARAM.format(strategy="RM", out=tmp_path / "config_out")
    path = write(tmp_path, text + "\n[noise_study]\ndeltas = 1e-3\ntrials = 1\n")
    assert main([command, path, "--output-dir", str(tmp_path / "cli_out")]) in (0, 1)
    assert sorted(os.listdir(tmp_path / "cli_out")) == files
    assert not (tmp_path / "config_out").exists()


def test_noise_study_solves_with_relative_weights(tmp_path, monkeypatch):
    text = TWO_PARAM.format(strategy="RM", out=tmp_path / "out")
    setup = load_config(write(tmp_path, text + "\n[noise_study]\ndeltas = 1e-3\ntrials = 2\n"))
    problem = setup.problem  # weight_mode left at its default
    assert np.array_equal(problem.weights, make_weights("uniform", problem.measured))
    solved = []

    def recording(problem, **kwargs):
        solved.append(problem)
        return solve(problem, **kwargs)

    solve = studies.solve
    monkeypatch.setattr(studies, "solve", recording)
    run_noise_study(setup)
    assert len(solved) == 2
    for problem in solved:
        assert np.array_equal(problem.weights, make_weights("relative", problem.measured))


def test_noise_study_runs_the_start_once(tmp_path, monkeypatch):
    import femupdate.objective as objective

    text = TWO_PARAM.format(strategy="RM", out=tmp_path / "out")
    setup = load_config(write(tmp_path, text + "\n[noise_study]\ndeltas = 1e-3 1e-2\ntrials = 2\n"))
    scaled, reference = setup.problem.scaled_from(setup.start)
    start_k = scaled.pencil.evaluate(np.ones(reference.size))[0].data
    at_start = []

    def recording(k_matrix, *args, **kwargs):
        at_start.append(np.array_equal(k_matrix.data, start_k))
        return lanczos(k_matrix, *args, **kwargs)

    lanczos = objective.lanczos_smallest
    monkeypatch.setattr(objective, "lanczos_smallest", recording)
    run_noise_study(setup)
    assert sum(at_start) == 1 and len(at_start) > 4  # four solves, one start


def test_cli_eigs(tmp_path, capsys):
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    assert main(["eigs", path]) == 0
    out = capsys.readouterr().out
    assert "f1" in out and "Hz" in out


def test_cli_mesh_export(tmp_path, capsys):
    target = tmp_path / "arch.mesh"
    assert main(["mesh", "arch", str(target)]) == 0
    assert target.exists()
    assert "440 nodes" in capsys.readouterr().out
    # benchmarks states the refinement bound; the message names the flag
    assert main(["mesh", "arch", str(target), "--refine", "0"]) == 2
    assert capsys.readouterr().err == "error: argument --refine: refine must be a positive integer\n"


def test_a_refine_beyond_the_size_limit_exits_2_before_meshing(tmp_path, capsys):
    # refine = 1000000 would ask for ~6e20 free dofs; it fails at once
    huge = write(tmp_path, BASE.format(out=tmp_path).replace("modes = 5", "modes = 5\nrefine = 1000000"))
    for argv, message in (
        (["eigs", huge], "config error: [run] refine: "),
        (["mesh", "vault", str(tmp_path / "v.mesh"), "--refine", "1000000"], "error: argument --refine: "),
    ):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith(message + "1000000 gives ") and err.count("\n") == 1


def test_trials_beyond_the_bound_exit_2_before_assembly(tmp_path, capsys):
    # 10**12 trials at the five default levels died allocating a 36.4 TiB
    # error table, an uncaught traceback
    text = BASE.format(out=tmp_path) + "[noise_study]\ntrials = 1000000000000\n"
    t0 = time.perf_counter()
    assert main(["noise-study", write(tmp_path, text)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "config error: [noise_study] trials: cannot read '1000000000000': "
        "must be an integer >= 1 and <= 10000\n")


def test_modes_beyond_the_free_dofs_exit_2_after_assembly(tmp_path, capsys):
    # arch r1 has 851 free dofs; 10**6 generated targets would be allocated first
    for modes in (852, 10**6):
        path = write(tmp_path, BASE.format(out=tmp_path).replace("modes = 5", "modes = %d" % modes))
        assert main(["eigs", path]) == 2
        assert capsys.readouterr().err == "config error: [run] modes: exceeds the model's 851 free dofs\n"


FUZZ_KEYS = [
    (name, key)
    for section, table in KEYS.items()
    for name in (("material.arch", "material.pier_left") if section == "material.<name>" else (section,))
    for key in table
]
FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "2", "0.7", "1e300", "1e-300", str(10**12), "text", "")


def eigs_runs_or_names_a_key(tmp_path_factory, changes, text=None):
    # eigs on a valid config (arch r1 by default) with (section, key, value)
    # changes: it runs, or it fails in one line with a documented exit code;
    # a config error names [section] key, and an exit 2 that does not is the
    # indefinite start. Returns the error line.
    parser = configparser.ConfigParser()
    parser.read_string(text or BASE.format(out=tmp_path_factory.getbasetemp() / "out"))
    for section, key, value in changes:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eigs", str(path)])
    err = err.getvalue()
    assert code in (0, 2, 3) and err.count("\n") <= 1, (code, err)
    if code == 2:
        assert re.match(r"config error: \[[\w.]+\] \w+: ", err) or (
            err.startswith("error: ") and "not positive definite" in err), err
    return err


@given(where=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=500)
def test_any_one_key_set_to_any_value_runs_or_names_a_key(tmp_path_factory, where, value):
    eigs_runs_or_names_a_key(tmp_path_factory, [(*where, value)])


# values that change what other keys mean, and the vectors those keys then
# read: custom weights and measured targets, valid or breaking a rule
PAIRED = [
    ("run", "weight_mode", "custom"), ("targets", "mode", "measured"),
    *[(section, key, vector) for section, key in (("run", "custom_weights"), ("targets", "values"))
      for vector in ("18 28 49 50 65", "0 0 0 0 0", "1 -1 1 1 1", "5 4 3 2 1", "1 2 3 4 inf")],
]


@given(changes=st.lists(
    st.one_of(st.sampled_from(PAIRED),
              st.builds(lambda where, value: (*where, value),
                        st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES))),
    min_size=2, max_size=3, unique_by=lambda change: change[:2]))
@settings(max_examples=600)
def test_several_keys_set_at_once_run_or_name_a_key(tmp_path_factory, changes):
    eigs_runs_or_names_a_key(tmp_path_factory, changes)


# every key given is read: set to a value other than the one it has, it
# changes what a command reads, or it is a config error that names it.
# The base is BASE from the box midpoint, so a changed box or parameter
# set moves the start with it.
READ_BASE = BASE.replace("start = 2000 1100 1100\n", "")
# values the base already has (drawn, they would change nothing)
SAME = {("run", "seed", "0"), ("run", "record_wall_time", "0"), ("targets", "noise", "0"),
        ("material.arch", "free", "")}
# valid values beside the edge values
OTHER = {
    ("run", "benchmark"): ("vault",), ("run", "weight_mode"): ("relative", "custom"),
    ("run", "strategy"): ("AD", "A"), ("run", "start"): ("2000 1100 1100",),
    ("run", "record_wall_time"): ("yes",), ("targets", "mode"): ("measured",),
    ("targets", "values"): ("4000 2000 4000",), ("noise_study", "deltas"): ("0.01 0.1",),
    ("material.arch", "free"): ("young", "density"),
    ("material.pier_left", "free"): ("young", "density"),
    ("material.pier_left", "young_bounds"): ("2000 8000",),
    ("material.pier_left", "density_bounds"): ("1500 2500",),
}
# values that make another key required, or change how many values it
# needs (generated targets: one true value per parameter): the error
# names that key
REQUIRES = {
    ("run", "weight_mode", "custom"): "[run] custom_weights",
    ("targets", "mode", "measured"): "[targets] values",
    ("material.arch", "free", "young"): "[material.arch] young_bounds",
    ("material.arch", "free", "density"): "[material.arch] density_bounds",
    ("run", "benchmark", "vault"): "[targets] values",
    **{("material.pier_left", "free", value): "[targets] values"
       for value in ("", "young", "density")},
}
CHANGES = [
    (*where, value) for where in FUZZ_KEYS for value in FUZZ_VALUES + OTHER.get(where, ())
    if (*where, value) not in SAME
]


def what_commands_read(setup):
    """What any command reads of a RunSetup, by name."""
    problem = setup.problem
    k, m = problem.pencil.evaluate(setup.start)
    read = dict(vars(setup), problem=None, assembly_seconds=None, k=k.data, m=m.data,
                names=problem.pencil.names, lower=problem.box.lower, upper=problem.box.upper)
    read.update({key: getattr(problem, key) for key in (
        "measured", "weights", "lanczos_tol", "criticality_tol", "seed")})
    return read


def same_value(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
    return a == b


@given(change=st.sampled_from(CHANGES))
@settings(max_examples=250)
@example(change=("material.pier_left", "young", "6000"))  # a free property's value
@example(change=("material.arch", "young_bounds", "1000 2000"))  # a fixed property's bounds
@example(change=("targets", "noise_seed", "7"))  # a seed without noise
def test_every_key_given_is_read(tmp_path_factory, change):
    section, key, value = change
    base = tmp_path_factory.getbasetemp()
    parser = configparser.ConfigParser()
    parser.read_string(READ_BASE.format(out=base / "out"))
    path = base / "read.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    before = what_commands_read(load_config(str(path)))
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)
    try:
        after = what_commands_read(load_config(str(path)))
    except ConfigError as exc:
        named = REQUIRES.get(change, "[%s] %s" % (section, key))
        assert str(exc).startswith(named + ": ") and "\n" not in str(exc), (change, str(exc))
    except NumericalError:  # the generated targets met the changed model: it was read
        pass
    else:
        assert any(not same_value(before[name], after[name]) for name in before), change


EXTERNAL = (
    "[run]\nbenchmark = mesh:{mesh}\nmodes = 5\n\n"
    "[targets]\nmode = measured\nvalues = 18 28 49 50 65\n\n"
    "[material.arch]\nregion = 1\nfree = young\nyoung_bounds = 2000 6000\n"
    "density = 1800\npoisson = 0.2\n\n"
    "[material.pier_left]\nregion = 2\nyoung = 5000\ndensity = 2200\npoisson = 0.2\n\n"
    "[material.pier_right]\nregion = 3\nyoung = 4800\ndensity = 2100\npoisson = 0.2\n"
)


@given(index=st.integers(0, 10**4), how=st.sampled_from(("drop", "duplicate", "garble")),
       field=st.integers(0, 8),
       token=st.sampled_from(("abc", "nan", "inf", "-1", "0", "1e300", "99999", "", "1 2")))
@settings(max_examples=300)
def test_a_mutated_mesh_file_runs_or_names_its_line(tmp_path_factory, index, how, field, token):
    # one line of a saved arch r1 mesh dropped, repeated, or with one field
    # replaced: eigs runs, or fails as above, and a file that does not load
    # names the line at fault, the node, or the end of the file
    base = tmp_path_factory.getbasetemp()
    saved = base / "arch.mesh.orig"
    if not saved.exists():
        benchmarks.benchmark("arch")[0].save(saved)
    lines = saved.read_text().splitlines(keepends=True)
    i = index % len(lines)
    if how == "drop":
        lines[i:i + 1] = []
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split()
        fields[field % len(fields)] = token
        lines[i] = " ".join(fields) + "\n"
    mesh = base / "mutated.mesh"
    mesh.write_text("".join(lines))
    err = eigs_runs_or_names_a_key(tmp_path_factory, [], EXTERNAL.format(mesh=mesh))
    if "cannot load mesh" in err:
        assert re.search(r": (line \d+|node \d+ \(1-based\)|mesh file ended early)", err), err


def test_generated_targets_take_seeded_noise_within_its_band(tmp_path):
    def targets(extra):
        path = write(tmp_path, BASE.format(out=tmp_path) + extra)
        return load_config(path).problem.measured

    clean = targets("")
    first, again, other = (targets("noise = 0.01\nnoise_seed = %d\n" % seed) for seed in (1, 1, 2))
    # each target moves by a factor in [0.99, 1.01], then all are sorted
    assert np.all(np.abs(first - clean) <= 0.01 * clean) and np.all(np.diff(first) >= 0.0)
    assert not np.array_equal(first, clean)
    assert np.array_equal(first, again) and not np.array_equal(first, other)


def test_a_malformed_config_is_one_line(tmp_path, capsys):
    # configparser's own text spans two or three lines: "[run" opens no section
    for text in ("[run\nbenchmark = arch\n", BASE.format(out=tmp_path) + "[run\n"):
        assert main(["eigs", write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config: ") and err.count("\n") == 1, err


def test_noise_study_with_measured_targets_exits_2_naming_the_mode(tmp_path, capsys):
    # the study measures parameter error against known true values
    out = tmp_path / "out"
    assert main(["noise-study", write(tmp_path, MEASURED.format(out=out))]) == 2
    assert capsys.readouterr().err == (
        "config error: [targets] mode: noise-study needs mode = generate (known true values)\n")
    assert not out.exists()


def test_noise_study_with_noisy_targets_exits_2_naming_the_noise(tmp_path, capsys):
    # the study adds its own noise to the clean targets: [targets] noise
    # would stack beneath it and set the error floor
    out = tmp_path / "out"
    assert main(["noise-study", write(tmp_path, BASE.format(out=out) + "noise = 0.05\n")]) == 2
    assert capsys.readouterr().err == (
        "config error: [targets] noise: noise-study adds its own noise to clean targets, "
        "needs 0, got 0.05\n")
    assert not out.exists()


def test_noise_study_solves_with_the_configured_strategy(tmp_path, monkeypatch):
    text = TWO_PARAM.format(strategy="AD", out=tmp_path / "out")
    setup = load_config(write(tmp_path, text + "\n[noise_study]\ndeltas = 1e-3 1e-2\ntrials = 2\n"))
    strategies = []

    def recording(problem, x0, strategy, **kwargs):
        strategies.append(strategy)
        return solve_baseline(problem, x0, strategy, **kwargs)

    def failing(*args, **kwargs):
        raise AssertionError("noise-study with strategy AD ran the trust region")

    solve_baseline = studies.solve_baseline
    monkeypatch.setattr(studies, "solve_baseline", recording)
    monkeypatch.setattr(studies, "solve", failing)
    run_noise_study(setup)
    assert strategies == ["AD"] * 4  # two levels, two trials
    with open(tmp_path / "out" / "noise_study.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 4 and all(row[3] == "1" and int(row[4]) > 0 for row in rows)


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, BASE.format(out=tmp_path).replace("strategy = RM", "strategy = BB"))
    assert main(["update", bad]) == 2
    assert "not supported" in capsys.readouterr().err
    assert main(["update", str(tmp_path / "missing.ini")]) == 2
    tr = write(tmp_path, BASE.format(out=tmp_path) + "[trust_region]\nmax_outer = -1\n", "tr.ini")
    assert main(["update", tr]) == 2
    assert "[trust_region] max_outer:" in capsys.readouterr().err
    # non-finite targets and weights are validation errors, not numerical ones
    generated = "mode = generate\nvalues = 5000 2200 4800"
    for values in ("nan 20 30 40 50", "10 20 30 40 inf"):
        text = BASE.format(out=tmp_path).replace(generated, "mode = measured\nvalues = " + values)
        assert main(["update", write(tmp_path, text, "targets.ini")]) == 2
        assert "measured frequencies must be finite" in capsys.readouterr().err
    for weights in ("nan 1 1 1 1", "1 1 inf 1 1"):
        text = BASE.format(out=tmp_path).replace(
            "weight_mode = uniform", "weight_mode = custom\ncustom_weights = " + weights)
        assert main(["update", write(tmp_path, text, "weights.ini")]) == 2
        assert "custom weights must be finite" in capsys.readouterr().err
    # tolerances and noise must be finite and in range; NaN included
    for line, key in (("criticality_tol = nan", "criticality_tol"),
                      ("criticality_tol = -1", "criticality_tol"),
                      ("lanczos_tol = nan", "lanczos_tol"), ("lanczos_tol = 10", "lanczos_tol")):
        text = BASE.format(out=tmp_path).replace("strategy = RM", "strategy = RM\n" + line)
        assert main(["update", write(tmp_path, text, "tol.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [run] %s: " % key) and "must be positive and finite" in err
    for noise in ("nan", "-0.5", "1.5"):
        text = BASE.format(out=tmp_path) + "noise = %s\n" % noise
        assert main(["update", write(tmp_path, text, "noise.ini")]) == 2
        assert "[targets] noise: must be nonnegative and finite" in capsys.readouterr().err
    # measured targets take no generated noise, not even a NaN one
    measured = "mode = measured\nvalues = 10 20 30 40 50"
    for line, key in (("noise = 0.5", "noise"), ("noise = nan", "noise"),
                      ("noise_seed = 3", "noise_seed")):
        text = BASE.format(out=tmp_path).replace(generated, measured) + line + "\n"
        assert main(["update", write(tmp_path, text, "measured.ini")]) == 2
        assert "[targets] %s: only applies to mode = generate" % key in capsys.readouterr().err
    # a malformed mesh file is a config error that names the line
    mesh_path = tmp_path / "arch.mesh"
    benchmarks.benchmark("arch")[0].save(mesh_path)
    saved = mesh_path.read_text()
    config = "[run]\nbenchmark = mesh:%s\n\n[targets]\nmode = measured\nvalues = 18\n" % mesh_path
    for old, new, message in (("dim 2", "dim", "line 2: expected 1 fields, found 0"),
                              ("\n2 4\n", "\n2 nan\n", "line 4: node coordinates must be finite")):
        assert old in saved
        mesh_path.write_text(saved.replace(old, new, 1))
        assert main(["update", write(tmp_path, config, "mesh.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err


TWO_QUADS = """dim 2
nodes 7
0 0
1 0
2 0
0 1
1 1
2 1
5 5
elements 2 quad4
1 2 5 4 1
2 3 6 5 1
constraints 4
1 x
1 y
4 x
4 y
"""


def test_cli_node_in_no_element_exits_2_naming_it(tmp_path, capsys):
    # node 7 lies in no element: left free, it made K(x) singular and the
    # run ended at the first factorization ("nonpositive pivot at index 9")
    mesh_path = tmp_path / "two.mesh"
    config = write(tmp_path, "[run]\nbenchmark = mesh:%s\nmodes = 2\n\n[material.slab]\n"
                   "region = 1\ndensity = 2000\npoisson = 0.2\nfree = young\n"
                   "young_bounds = 1000 9000\n\n[targets]\nmode = measured\nvalues = 10 20\n"
                   % mesh_path)
    mesh_path.write_text(TWO_QUADS)
    assert main(["eigs", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [run] benchmark: cannot load mesh ")
    assert "node 7 (1-based) lies in no element" in err and "Traceback" not in err
    # with both its dofs fixed it is no part of the model
    mesh_path.write_text(TWO_QUADS.replace("constraints 4", "constraints 6") + "7 x\n7 y\n")
    assert main(["eigs", config]) == 0
    assert "f2" in capsys.readouterr().out


def test_cli_eigs_prints_significant_digits_of_tiny_frequencies(tmp_path, capsys):
    # a modulus of 1e-30 gives frequencies near 1e-15 Hz: a fixed-point
    # format would print them all as zero
    text = BASE.format(out=tmp_path / "out") + "\n[material.arch]\nyoung = 1e-30\n"
    assert main(["eigs", write(tmp_path, text)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  f")]
    freqs = [float(line.split("=")[1].split()[0]) for line in lines]
    assert len(freqs) == 5 and all(0.0 < f < 1e-10 for f in freqs)
    assert freqs == sorted(freqs) and len(set(freqs)) == len(freqs)


def test_cli_overflow_exits_3_with_one_line(tmp_path, capsys):
    # a positive, finite, absurd modulus overflows the eigensolver: that is a
    # numerical failure (exit 3) in one line, not a config error, no warning
    text = BASE.format(out=tmp_path / "out") + "\n[material.arch]\nyoung = 1e-300\n"
    assert main(["eigs", write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: Lanczos step ") and err.count("\n") == 1


def test_cli_indefinite_start_exits_2(tmp_path, capsys, monkeypatch):
    # a start where K(x) is not positive definite is a usage error
    import femupdate.cli as cli

    def failing(setup):
        raise NotPositiveDefiniteError(462)

    monkeypatch.setattr(cli, "run_update", failing)
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    assert main(["update", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not positive definite" in err


def test_cli_nonconvergence_exit_1(tmp_path, capsys):
    text = TWO_PARAM.format(strategy="RM", out=tmp_path / "out") + (
        "\n[trust_region]\nmax_outer = 1\n"
    )
    path = write(tmp_path, text)
    assert main(["update", path]) == 1


def test_cli_unexpected_exception_exits_4_with_its_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means "did not converge": a fault of the program has its own code
    import femupdate.cli as cli

    def failing(setup):
        raise KeyError("no such column")

    monkeypatch.setattr(cli, "run_update", failing)
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    assert main(["update", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("KeyError: 'no such column'\n") and "in failing" in err


def test_cli_numerical_failure_exit_3(tmp_path, capsys, monkeypatch):
    import femupdate.cli as cli
    from femupdate import SurrogateOutOfRangeError

    def failing(setup):
        raise SurrogateOutOfRangeError("metric Z lost definiteness")

    monkeypatch.setattr(cli, "run_update", failing)
    path = write(tmp_path, TWO_PARAM.format(strategy="RM", out=tmp_path / "out"))
    assert main(["update", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "metric Z" in err
