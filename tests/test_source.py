"""Source-level rules for the package."""

import ast
from pathlib import Path

import gradedorders

SRC = Path(gradedorders.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so checks that guard the
    # mathematics must raise typed errors instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
