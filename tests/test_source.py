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


def test_fractions_only_in_base_rings():
    # exact scalars are integer triples (base_rings.KElem); Fraction
    # arithmetic anywhere else would bring the slow path back
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "base_rings.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
