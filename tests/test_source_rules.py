"""Rules on the package source that no behavioural test can see."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "femupdate"


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
