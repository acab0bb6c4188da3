"""Source-level rules for the package."""

import ast
import os
from collections import Counter
import subprocess
import sys
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


def imports_of(package: str, skip: str = "") -> list[str]:
    """Where package modules other than skip import the named package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == skip:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == package for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_fractions_only_in_base_rings():
    # exact scalars are integer triples (base_rings.KElem); Fraction
    # arithmetic anywhere else would bring the slow path back
    assert imports_of("fractions", skip="base_rings.py") == []


def test_no_sympy_imports():
    # importing SymPy costs more than the rest of the command line together;
    # the tests keep it as a reference only
    assert imports_of("sympy") == []


def test_cli_runs_without_sympy():
    # SymPy is a test-only dependency: with its import blocked, the command
    # line prints the same bytes and exits with the same code
    def run(prelude):
        code = f"import sys\n{prelude}from gradedorders.cli import main\nsys.exit(main(['example', 'nonbasic', '--json']))"
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    normal = run("")
    assert normal[1].startswith(b"{")
    assert run("sys.modules['sympy'] = None\n") == normal


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


# Public names kept for the tests as reference helpers, with no caller in
# the package itself.
TEST_REFERENCE_HELPERS = {
    "all_sylow_subgroups": "every Sylow subgroup, for the Sylow-choice invariance tests",
    "permutation_action": "the natural action, for the orbit and stabilizer tests",
    "group_to_json": "the inverse of group_from_json, for its round-trip test",
    "ideal_to_json": "the inverse of ideal_from_json, for its round-trip test",
    "pic_class_of": "the inverse of construct_class_representative, for its round-trip test",
    "basic_idempotent_corner": "the basic corner of a tiled order, for the projective-class tests",
    "coboundary_cocycle": "a cocycle that always satisfies the identity; the crossed benchmark uses it too",
}


def test_public_names_are_used():
    # no dead exports: every public top-level def or class, and every
    # public method or property of a package class, is referenced by other
    # package code, exported in __all__, or a listed test helper
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    allowed = used | set(gradedorders.__all__) | set(TEST_REFERENCE_HELPERS)
    defs = [
        (f"{name}:{node.name}", node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (f"{where}.{node.name}", node)
        for where, cls in defs
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    unused = [where for where, node in defs if not node.name.startswith("_") and node.name not in allowed]
    assert unused == []


# Public methods whose name another package class also defines, each with a
# package function that calls it, as module.function or
# module.Class.method.  test_public_names_are_used matches bare names, so it
# would pass a dead method while the other class's method of that name is
# called; a method only gets a listing with a caller.
SHARED_NAME_CALLERS = {
    "base_rings.GaussianInt.is_zero": "base_rings.gaussian_gcd",
    "base_rings.KElem.is_zero": "base_rings.kelem_valuation",
    "base_rings.KElem.of": "oracle.flatten",
    "oracle._Alg.of": "oracle.radical_mod_m",
    "pic.PicClass.of": "cli._class_representative",
    "base_rings.FractionalIdealR.as_dict": "base_rings.valuation",
    "pic.PicClass.as_dict": "pic.construct_class_representative",
    "base_rings.FractionalIdealR.support": "tiled.validate_global_order",
    "tiled.GlobalTiledOrder.support": "graded.construct_from_pic",
    "graded.Monomial.identity": "cli._parse_crossed",
    "groups.FiniteGroup.identity": "graded.graded_order",
}


def test_shared_method_names_are_listed_with_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    methods = [
        (f"{module}.{cls.name}.{node.name}", node.name)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    defined = Counter(name for _, name in methods)
    shared = {where for where, name in methods if defined[name] > 1}
    unlisted, stale = shared - set(SHARED_NAME_CALLERS), set(SHARED_NAME_CALLERS) - shared
    assert (unlisted, stale) == (set(), set())
    for method, caller in SHARED_NAME_CALLERS.items():
        module, *path = caller.split(".")
        scope = trees[module]
        for name in path:
            scope = next(n for n in scope.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
        attr = method.rsplit(".", 1)[1]
        assert any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(scope)), (method, caller)
