"""Rules on the package source that no behavioural test can see."""

import ast
import configparser
from pathlib import Path

import numpy as np

import femupdate
from femupdate.config import _REQUIRED, KEYS, _read

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "femupdate"


def test_package_has_no_assert_statements():
    # python -O strips assert statements: a check in the package raises
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 1  # the walk saw the package
    assert found == []


def test_every_public_name_resolves():
    # a trimmed API must take its names out of __all__ too
    missing = [name for name in femupdate.__all__ if not hasattr(femupdate, name)]
    assert len(femupdate.__all__) > 1
    assert missing == []


def test_readme_config_schema_matches_accepted_keys():
    # the README's schema block is the one documented copy of KEYS
    text = (ROOT / "README.md").read_text()
    block = text.split("### Config schema (version 1)", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, keys = {}, None
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            keys = documented.setdefault(line.strip("[]"), [])
        elif "=" in line:
            keys.append(line.split("=", 1)[0].strip())
    accepted = {section: sorted(names) for section, names in KEYS.items()}
    assert {section: sorted(names) for section, names in documented.items()} == accepted
    # every documented value of a key with a default of its own is that default
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    checked = []
    for section, table in KEYS.items():
        values = _read(parser, section)
        for key, (_, default) in table.items():
            if default is not None and default is not _REQUIRED:
                assert np.array_equal(values[key], default), (section, key, values[key])
                checked.append(key)
    assert len(checked) == 17  # [run] 11, [trust_region] 1, [targets] 2, [noise_study] 3


def test_package_stays_under_its_line_ceiling():
    # ROADMAP aim 2 tracks design quality as fewer lines in the package;
    # a change that needs more must first take some out
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert len(list(PACKAGE.glob("*.py"))) > 1  # the glob saw the package
    assert lines <= 3300
