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


def test_float64_only_in_exact_matmul():
    # float64 products are exact only below 2**53; the one helper that
    # checks that bound (oracle._matmul) is the only oracle code that may
    # use a float dtype
    found = []
    for name in ("oracle.py", "gf.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        helper = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_matmul"]
        allowed = {id(n) for h in helper for n in ast.walk(h)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (
                (isinstance(node, ast.Attribute) and node.attr.startswith("float"))
                or (isinstance(node, ast.Name) and node.id == "float")
                or (isinstance(node, ast.Constant) and isinstance(node.value, str) and "float" in node.value)
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []
