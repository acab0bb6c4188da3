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


def test_matrix_products_only_in_exact_kernels():
    # a contraction of residues is exact only if its sums are bounded:
    # _matmul checks the float64 and int64 limits, and _batched_charpoly
    # bounds its entries itself (see oracle._dtype); every other matrix
    # product in the oracle goes through _matmul
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    kernels = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in ("_matmul", "_batched_charpoly")]
    assert len(kernels) == 2
    allowed = {id(n) for k in kernels for n in ast.walk(k)}
    found = [
        f"oracle.py:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            (isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "einsum", "tensordot"))
            or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        )
    ]
    assert found == []


def test_one_product_kernel_in_the_oracle():
    # products of algebra elements come from _Alg.products alone; a ufunc
    # .at scatter (np.add.at) builds a dense table, and only the trace
    # form, the block maps (built together as block_groups) and the
    # quotient's structure constants may
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    scatters = {"trace_matrix", "block_groups", "_quotient"}
    owners = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in scatters]
    assert sorted(n.name for n in owners) == sorted(scatters)
    allowed = {id(n) for f in owners for n in ast.walk(f)}
    found = [
        f"oracle.py:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in allowed and isinstance(node, ast.Attribute) and node.attr == "at"
    ]
    assert found == []


def test_certificate_reads_only_blocks():
    # _certify reads the radical through its block multiplication maps: a
    # call of _Alg.products or of an echelon helper over the whole space
    # (_row_basis, _nullspace, _rank) would bring back a (d*n) x n system
    # or the squaring chain
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    (certify,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_certify"]
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        for node in ast.walk(certify)
        if isinstance(node, ast.Call)
    }
    assert "_batched_echelon" in called
    assert called & {"products", "_row_basis", "_nullspace", "_rank"} == set()


def test_json_format_only_in_cli():
    # the input format is read and written in one module: no other defines
    # a function whose name mentions json
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "json" in node.name.lower()
        ]
    assert found == []


# Public names kept for the tests as reference helpers, with no caller in
# the package itself.
TEST_REFERENCE_HELPERS = {
    "all_sylow_subgroups": "every Sylow subgroup, for the Sylow-choice invariance tests",
    "permutation_action": "the natural action, for the orbit and stabilizer tests",
    "ideal_to_json": "the inverse of the command line's ideal reader, for its round-trip test",
    "pic_class_of": "the inverse of construct_class_representative, for its round-trip test",
    "subgroup": "FiniteGroup.subgroup, the checked way tests name a subgroup",
    "coboundary_cocycle": "a cocycle that always satisfies the identity; the crossed benchmark uses it too",
}


def test_public_names_are_used():
    # no dead exports: every public top-level def or class, and every
    # public method or property of a package class, is referenced by other
    # package code, exported in __all__, or a listed test helper; a method
    # counts as referenced only through an attribute access (x.name), since
    # a bare name of the same spelling is some other variable
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    allowed_methods = attrs | set(gradedorders.__all__) | set(TEST_REFERENCE_HELPERS)
    allowed = names | allowed_methods
    defs = [
        (f"{name}:{node.name}", node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    methods = [
        (f"{where}.{node.name}", node)
        for where, cls in defs
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    unused = [where for where, node in defs if not node.name.startswith("_") and node.name not in allowed]
    unused += [
        where for where, node in methods if not node.name.startswith("_") and node.name not in allowed_methods
    ]
    assert unused == []


# Public methods whose name another package class also defines, each with a
# package function that calls it, as module.function or
# module.Class.method.  test_public_names_are_used matches attribute names
# without their class, so it would pass a dead method while the other
# class's method of that name is called; a method only gets a listing with a
# caller.
SHARED_NAME_CALLERS = {
    "base_rings.KElem.of": "oracle.flatten",
    "oracle._Alg.of": "oracle.StructureConstantOrder.residue_algebra",
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
