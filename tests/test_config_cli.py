"""INI configuration loading, study writers, and the command line."""

import configparser
import csv
import os
import re

import numpy as np
import pytest

from femupdate import ConfigError, NotPositiveDefiniteError, benchmarks, load_config, studies
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
    assert setup.parameter_names == [
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
    assert setup.parameter_names == ["young:arch", "density:arch"]
    assert np.array_equal(setup.start, setup.problem.box.midpoint())


MEASURED = BASE.replace("mode = generate", "mode = measured").replace(
    "values = 5000 2200 4800", "values = 18 28 49 50 65"
)


def test_config_error_cases(tmp_path):
    mesh_path = tmp_path / "arch.mesh"
    benchmarks.benchmark("arch")[0].save(mesh_path)
    external = (
        "[run]\nbenchmark = mesh:%s\nmodes = 5\n\n"
        "[targets]\nmode = measured\nvalues = 18 28 49 50 65\n\n"
        "[material.arch]\nregion = 1\nfree = young\n\n"
        "[material.pier_left]\nregion = 2\n\n[material.pier_right]\nregion = 3\n"
        % mesh_path
    )
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
            "free_density_negative",
            BASE + "[material.pier_left]\ndensity = -1\n",
            r"\[material\.pier_left\] density:",
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
        # an external mesh's region ids: 1..3, each declared once
        *[
            ("region_" + name, external.replace("free = young\n", "").replace(old, new),
             r"^\[material\.%s\] region: " % section)
            for name, old, new, section in (
                ("zero", "region = 1", "region = 0", "arch"),
                ("negative", "region = 3", "region = -1", "pier_right"),
                ("twice", "region = 3", "region = 2", "pier_right"),
                ("beyond", "region = 3", "region = 4", "pier_right"),
            )
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
        # negative seeds
        ("run_seed", BASE.replace("seed = 0", "seed = -1"), r"^\[run\] seed: "),
        (
            "noise_seed",
            BASE + "noise = 0.01\nnoise_seed = -3\n",
            r"^\[targets\] noise_seed: ",
        ),
        ("study_seed", BASE + "[noise_study]\nseed = -5\n", r"^\[noise_study\] seed: "),
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
        # trust-region values the solver cannot use: 0 < eta1 <= eta2 < 1,
        # 0 < gamma2 < 1, growth >= 1, 0 < delta0 <= delta_max,
        # max_outer >= 0, inner_tol > 0; NaN fails every rule
        *[
            ("tr_" + key, BASE + "[trust_region]\n%s = %s\n" % (key, value),
             r"\[trust_region\] %s:" % key)
            for key, value in (
                ("delta0", "0"), ("delta0", "-0.1"), ("delta0", "2"), ("eta1", "2"),
                ("eta1", "0"), ("eta2", "1"), ("eta2", "nan"), ("gamma2", "1.5"),
                ("gamma2", "0"), ("growth", "0.5"), ("delta_max", "0"),
                ("max_outer", "-1"), ("inner_tol", "-1"), ("inner_tol", "0"),
            )
        ],
        (
            "tr_eta1_above_eta2",
            BASE + "[trust_region]\neta1 = 0.5\neta2 = 0.4\n",
            r"\[trust_region\] eta1:",
        ),
        # noise-study values the study cannot use
        *[
            ("noise_" + key, BASE + "[noise_study]\n%s = %s\n" % (key, value),
             r"\[noise_study\] %s:" % key)
            for key, value in (
                ("deltas", "0 1e-3"), ("deltas", "-1e-3"), ("deltas", "1e-3 inf"),
                ("deltas", "nan"), ("deltas", ""), ("trials", "0"), ("trials", "-2"),
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
])
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
        free = []
        if mat.free_young:
            free.append("young")
        if mat.free_density:
            free.append("density")
        sections.append(
            "[material.%s]\nregion = %d\nyoung = %r\ndensity = %r\npoisson = %r\n"
            "free = %s\nyoung_bounds = %r %r\ndensity_bounds = %r %r\n"
            % (
                mat.name, rid, mat.young, mat.density, mat.poisson, " ".join(free),
                *mat.young_bounds, *mat.density_bounds,
            )
        )
    text = (
        "[run]\nbenchmark = mesh:%s\nmodes = 5\noutput_dir = %s\n\n"
        "[targets]\nmode = generate\nvalues = 5000 2200 4800\n\n%s"
        % (mesh_path, tmp_path / "out", "\n".join(sections))
    )
    setup = load_config(write(tmp_path, text))
    assert setup.parameter_names == pencil.names
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


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, BASE.format(out=tmp_path).replace("strategy = RM", "strategy = BB"))
    assert main(["update", bad]) == 2
    assert "not supported" in capsys.readouterr().err
    assert main(["update", str(tmp_path / "missing.ini")]) == 2
    tr = write(tmp_path, BASE.format(out=tmp_path) + "[trust_region]\ngamma2 = 1.5\n", "tr.ini")
    assert main(["update", tr]) == 2
    assert "[trust_region] gamma2:" in capsys.readouterr().err
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
                      ("lanczos_tol = nan", "lanczos_tol")):
        text = BASE.format(out=tmp_path).replace("strategy = RM", "strategy = RM\n" + line)
        assert main(["update", write(tmp_path, text, "tol.ini")]) == 2
        assert key + " must be positive and finite" in capsys.readouterr().err
    for noise in ("nan", "-0.5"):
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
