"""The four benchmark workloads: inputs made from a seed, the operations,
and the checks each operation's result must pass.

Every operation is a callable taking the recording phase (None when
untraced, a Tracer or a CallCounter in the traced run) and returning None
when its result is right, or a line saying what was wrong.  In-process
operations ignore the phase, because the runner installs the recording
around them; the CLI operations need it to record inside their child
process.

Expected results are pinned from the seed commit of the package.  Package
functions are always looked up through their module at call time, so that
the traced run's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gradedorders import base_rings as B
from gradedorders import graded as G
from gradedorders import groups as GR
from gradedorders import oracle as O
from gradedorders import pic as P
from gradedorders import semiprime as S
from gradedorders import tiled as T
from tracer import CallCounter, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

M2 = B.maximal_ideals_above(B.ZZ, 2)[0]
M3 = B.maximal_ideals_above(B.ZZ, 3)[0]
P5, Q5 = B.maximal_ideals_above(B.ZI, 5)
ONE = B.KElem.of(1, 0)


class Workload:
    """A workload: its name and how to build the inputs, the warm-up op and
    the ops of one round.  Each subclass docstring says why the workload is
    there."""

    name = ""
    warm = True
    shuffle = True

    def setup(self, seed: int, smoke: bool):
        raise NotImplementedError

    def warmup(self, state):
        return None

    def ops(self, state) -> list:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep: engine/oracle agreement over small exponent matrices and a corpus


def _closure_valid(mat) -> bool:
    n = len(mat)
    return all(
        mat[i][k] + mat[k][j] >= mat[i][j]
        for i in range(n)
        for k in range(n)
        for j in range(n)
    )


def _matrix(n, vals):
    mat = [[0] * n for _ in range(n)]
    for (i, j), v in zip(((i, j) for i in range(n) for j in range(n) if i != j), vals):
        mat[i][j] = v
    return tuple(tuple(row) for row in mat)


def all_matrices(n):
    """All closure-valid n x n exponent matrices with entries in {0,1,2}."""
    for vals in itertools.product(range(3), repeat=n * (n - 1)):
        mat = _matrix(n, vals)
        if _closure_valid(mat):
            yield mat


def sample_matrices(rng, n, k):
    """k distinct closure-valid matrices, uniform by rejection sampling."""
    seen = set()
    out = []
    while len(out) < k:
        mat = _matrix(n, [rng.randrange(3) for _ in range(n * (n - 1))])
        if mat not in seen and _closure_valid(mat):
            seen.add(mat)
            out.append(mat)
    return out


def _trivial_crossed(delta, group, copies):
    base = G.LocalBase(tuple(delta for _ in range(copies)))
    idm = G.Monomial(tuple(range(delta.n)), tuple(ONE for _ in range(delta.n)))
    action = {g: (g, tuple(idm for _ in range(copies))) for g in group.elements}
    return G.construct_crossed_product(base, group, G.CrossedProductDatum(action))


def graded_corpus():
    """Generated gradings with flattened rank <= 64 over both residue
    characteristics, the three Gaussian splitting types, and group rings
    (the acceptance sweep's corpus, rebuilt here)."""
    orders = []
    for place in (M2, M3):
        for blocks in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]:
            delta = T.hereditary_staircase(blocks, B.ZZ, place)
            orders.append(G.construct_from_pic(delta, T.radical(delta)))
        base = G.LocalBase((T.hereditary_staircase((1, 1), B.ZZ, place),))
        for size in (2, 3):
            grp = GR.cyclic_group(size)
            comps = {g: G.identity_component(base) for g in grp.elements if g != grp.identity}
            orders.append(G.graded_order(grp, base, comps))
        orders.append(
            _trivial_crossed(T.hereditary_staircase((1, 1), B.ZZ, place), GR.symmetric_group(2), 2)
        )
    (m3i,) = B.maximal_ideals_above(B.ZI, 3)
    (m2i,) = B.maximal_ideals_above(B.ZI, 2)
    for mi in (P5, m3i, m2i):
        delta = T.hereditary_staircase((1, 1), B.ZI, mi)
        orders.append(G.construct_from_pic(delta, T.radical(delta)))
    return orders


# (place, rank, oracle, engine) of each corpus order at its one place.
CORPUS_PINS = (
    ("(2)", 8, True, True), ("(2)", 18, True, True), ("(2)", 27, True, True),
    ("(2)", 32, True, True), ("(2)", 32, True, True), ("(2)", 48, True, True),
    ("(2)", 64, True, True), ("(2)", 8, False, False), ("(2)", 12, True, True),
    ("(2)", 16, True, True), ("(3)", 8, True, True), ("(3)", 18, True, True),
    ("(3)", 27, True, True), ("(3)", 32, True, True), ("(3)", 32, True, True),
    ("(3)", 48, True, True), ("(3)", 64, True, True), ("(3)", 8, True, True),
    ("(3)", 12, False, False), ("(3)", 16, True, True), ("(1+2i)", 8, True, True),
    ("(3)", 8, True, True), ("(1+1i)", 8, True, True),
)
SMOKE_CORPUS = (0, 7, 20)


def _report_check(order, m, pin):
    r = O.oracle_report(order, m)
    got = (r["place"], r["rank"], r["oracle"], r["engine"])
    if got != tuple(pin) or r["agree"] is not True:
        return f"oracle_report at {m}: got {got}, agree {r['agree']}; pinned {tuple(pin)}"
    return None


class Sweep(Workload):
    """Many tiny engine/oracle agreement calls, ranks 1 to 64, both
    oracle backends; per-call overhead and Fraction arithmetic dominate."""

    name = "sweep"
    SIZE4 = 200

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        if smoke:
            mats = [m for n in (1, 2) for m in all_matrices(n)]
            mats += sample_matrices(rng, 3, 3) + sample_matrices(rng, 4, 2)
            picks = SMOKE_CORPUS
        else:
            mats = [m for n in (1, 2, 3) for m in all_matrices(n)]
            mats += sample_matrices(rng, 4, self.SIZE4)
            picks = range(len(CORPUS_PINS))
        corpus = graded_corpus()
        if len(corpus) != len(CORPUS_PINS):
            raise RuntimeError(f"corpus has {len(corpus)} orders, expected {len(CORPUS_PINS)}")
        reports = []
        for k in picks:
            (m,) = corpus[k].places()
            reports.append((corpus[k], m, CORPUS_PINS[k]))
        return {"mats": mats, "reports": reports, "trivial": GR.cyclic_group(1)}

    @staticmethod
    def _matrix_op(state, mat):
        def op(phase):
            exp = T.ExponentMatrix(len(mat), mat, B.ZZ, M2)
            order = G.graded_order(state["trivial"], G.LocalBase((exp,)), {})
            oracle = O.hereditary_oracle(O.flatten(order, M2))
            engine = T.is_hereditary_local(exp)
            if oracle != engine:
                return f"{mat}: oracle {oracle}, engine {engine}"
            return None

        return op

    def warmup(self, state):
        return self._matrix_op(state, state["mats"][-1])

    def ops(self, state):
        out = [(f"matrix{len(m)}", self._matrix_op(state, m)) for m in state["mats"]]
        for order, m, pin in state["reports"]:
            out.append((f"corpus-{pin[1]}", lambda phase, o=order, m=m, pin=pin: _report_check(o, m, pin)))
        return out


# ---------------------------------------------------------------------------
# gauss125: the rank-125 Gaussian outer order at both places over 5


def gaussian_outer(n):
    """The n x n Gaussian staircase at both places over 5, graded by the
    Picard class of the place (2+1i) (the bundled 'outer' fixture at n=5)."""
    st = T.hereditary_staircase((1,) * n)
    rows = [
        [B.FractionalIdealR.from_factors(B.ZI, {P5: st.entries[i][j], Q5: st.entries[i][j]}) for j in range(n)]
        for i in range(n)
    ]
    delta = T.validate_global_order(B.ZI, rows)
    x = P.construct_class_representative(delta, P.PicClass.of({Q5: 1}))
    return G.construct_from_pic(delta, x)


GAUSS_PINS = {
    5: (("(1+2i)", 125, False, False), ("(2+1i)", 125, True, True)),
    3: (("(1+2i)", 27, True, True), ("(2+1i)", 27, True, True)),
}


class Gauss125(Workload):
    """Rank-125 oracle check at (1+2i) and (2+1i): the NumPy kernels and
    the flatten of 3125 structure constants do nearly all the work."""

    name = "gauss125"
    # Peak RSS depends on which place runs first, so the order is fixed.
    shuffle = False

    def setup(self, seed, smoke):
        n = 3 if smoke else 5
        return {"order": gaussian_outer(n), "pins": GAUSS_PINS[n], "small": gaussian_outer(3)}

    def warmup(self, state):
        return lambda phase: _report_check(state["small"], P5, GAUSS_PINS[3][0])

    def ops(self, state):
        return [
            (f"report{pin[0]}", lambda phase, m=m, pin=pin: _report_check(state["order"], m, pin))
            for m, pin in zip((P5, Q5), state["pins"])
        ]


# ---------------------------------------------------------------------------
# crossed: crossed-product construction plus verdict, never the oracle

S3_GENS = ((1, 0, 2), (1, 2, 0))
S4_GENS = ((1, 0, 2, 3), (1, 2, 3, 0))

# label -> (degree, generators, place, |G|, hereditary, delta_hereditary,
#           verdict breakdown as (p, place, inner witness))
CROSSED_CASES = {
    "S3@2": (3, S3_GENS, M2, 6, False, True, ((2, "(2)", (0, 2, 1)),)),
    "S3@3": (3, S3_GENS, M3, 6, True, True, ()),
    "S4@2": (4, S4_GENS, M2, 24, False, True, ((2, "(2)", (0, 1, 3, 2)),)),
    "S4@3": (4, S4_GENS, M3, 24, False, True, ((3, "(3)", (0, 2, 3, 1)),)),
}


def _coboundary(rng, degree, gens):
    """A seed-derived coboundary tau(g,h) = mu(g) mu(h) / mu(gh) with unit
    values mu in {1, -1}; the first non-identity element gets -1 so that the
    cocycle is never the trivial one."""
    group = GR.FiniteGroup(degree, gens)
    els = [g for g in group.elements if g != group.identity]
    mu = {g: B.KElem.of(rng.choice((1, -1)), 0) for g in els}
    mu[els[0]] = B.KElem.of(-1, 0)
    return G.coboundary_cocycle(group, mu)


class Crossed(Workload):
    """Crossed products over S_3 and S_4 with trivial and coboundary
    cocycles: graded construction, groups and the semiprime verdict, no
    oracle.

    S_4 runs at both places with both cocycles, S_3 once per place, so
    that two thirds of the ops are S_4 constructions and the median falls
    inside that one cluster rather than in the gap between the S_3 and S_4
    costs."""

    name = "crossed"

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        cases = [("S3@2", None), ("S3@2", "cob"), ("S3@3", None)]
        if not smoke:
            cases = [("S3@2", None), ("S3@3", "cob")] + [
                (label, variant) for label in ("S4@2", "S4@3") for variant in (None, "cob")
            ]
        out = []
        for label, variant in cases:
            degree, gens = CROSSED_CASES[label][:2]
            cocycle = _coboundary(rng, degree, gens) if variant else None
            out.append((label, variant, cocycle))
        return {"cases": out}

    @staticmethod
    def _op(label, cocycle):
        degree, gens, place, *pin = CROSSED_CASES[label]

        def op(phase):
            group = GR.FiniteGroup(degree, gens)
            delta = T.hereditary_staircase((1, 1), B.ZZ, place)
            base = G.LocalBase(tuple(delta for _ in range(degree)))
            idm = G.Monomial((0, 1), (ONE, ONE))
            action = {g: (g, tuple(idm for _ in range(degree))) for g in group.elements}
            order = G.construct_crossed_product(base, group, G.CrossedProductDatum(action, cocycle))
            v = S.main_hereditary_verdict(order)
            breakdown = tuple((e.prime, str(e.place), e.inner_witness) for e in v.breakdown)
            got = [group.order, v.hereditary, v.delta_hereditary, breakdown]
            if got != pin:
                return f"{label}: got {got}, pinned {pin}"
            return None

        return op

    def warmup(self, state):
        return self._op("S3@2", None)

    def ops(self, state):
        return [
            (f"{label}{'-cob' if variant else ''}", self._op(label, cocycle))
            for label, variant, cocycle in state["cases"]
        ]


# ---------------------------------------------------------------------------
# cli: fresh `python -m gradedorders.cli ... --json` processes

SEMIPRIME_JSON = {
    "kind": "crossed-product",
    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
    "copies": 3,
    "group": {"degree": 3, "gens": ["(1 2)", "(1 2 3)"]},
}
NONBASIC_JSON = {
    "kind": "pic-construction",
    "delta": {"ring": "Z", "prime": "2", "staircase": [2, 1]},
    "radpower": 1,
}


def outer_delta_json(n=5):
    both = {"factors": [["1+2i", 1], ["2+1i", 1]]}
    return {
        "ring": "Zi",
        "n": n,
        "entries": [[dict(both) if i > j else {"factors": []} for j in range(n)] for i in range(n)],
    }


# argv (after the program name, before --json) -> (exit code, sha256 of stdout)
CLI_PINS = {
    ("example", "nonbasic"): (0, "63e0ecc533a8849cbe1c419f22a34bb6790b871fc33f9e069554f0d098e5f75c"),
    ("example", "semiprime", "--d", "3"): (0, "90aae00446342180646a6c6b64f83bb2482a83456e0620d847caf664e5b45fc4"),
    ("example", "semiprime", "--d", "4"): (0, "3b5c02fa4d6da5d174d5a474bcf33b4f7d92c9b9e9014784b4e8610150fb93ce"),
    ("picent", "{dir}/delta.json"): (0, "29a811ab10a85455e9a27dc60d8b0d8279853dca1d0305c9b798782cd5371ece"),
    ("check", "{dir}/semiprime.json"): (1, "af46aab2e25d60d288ae3a07a4b8604db784d9bb02b1b295675cf565cd4656c0"),
    ("check", "{dir}/nonbasic.json"): (0, "eac8980857882281df028840b6da560349e753eef71c892afa45a28a4dd7beb2"),
    ("classify", "{dir}/semiprime.json"): (0, "1c53c248a3b187e057d8d7dc70425e8b87fca9f1090533e8bf6728019ca2c4f2"),
    ("classify", "{dir}/nonbasic.json"): (0, "d2032b1f036c428423ebf72a53a5bcd4c9d9bf87d436a57eb093990950492d12"),
    ("oracle-check", "{dir}/semiprime.json"): (0, "f00f87cb2d682b77efb0cd31c7e6e9973d1b27603864e62d76a9b9d8cc70f47d"),
    ("oracle-check", "{dir}/nonbasic.json"): (0, "89243120c89799b5a8a9aefaadf955978ba7f8282b0b2c6f247905477fab6817"),
}
SMOKE_CLI = (("example", "nonbasic"), ("check", "{dir}/nonbasic.json"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv, timeout=120):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=timeout,
    )


class Cli(Workload):
    """What a user types: fresh interpreters running example, picent,
    check, classify and oracle-check with --json; start-up and import
    dominate."""

    name = "cli"
    warm = False  # a CLI user pays start-up on every run

    def setup(self, seed, smoke):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        fixtures = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        for fname, obj in (
            ("semiprime.json", SEMIPRIME_JSON),
            ("nonbasic.json", NONBASIC_JSON),
            ("delta.json", outer_delta_json()),
        ):
            (fixtures / fname).write_text(json.dumps(obj, indent=2))
        commands = SMOKE_CLI if smoke else tuple(CLI_PINS)
        return {"dir": fixtures, "commands": commands}

    def close(self, state):
        for path in state["dir"].iterdir():
            path.unlink()
        state["dir"].rmdir()

    @staticmethod
    def _op(state, key):
        code_pin, digest_pin = CLI_PINS[key]
        args = [a.format(dir=state["dir"]) for a in key] + ["--json"]

        def op(phase):
            if phase is None:
                proc = _run_child(["-m", "gradedorders.cli", *args])
            else:
                mode = "spans" if isinstance(phase, Tracer) else "count"
                record = state["dir"] / f"record-{os.getpid()}.json"
                spawned = repr(time.perf_counter())
                proc = _run_child([str(BENCH_DIR / "cli_shim.py"), mode, str(record), spawned, *args])
                data = json.loads(record.read_text())
                record.unlink()
                if isinstance(phase, CallCounter):
                    phase.counts.update(data["counts"])
                else:
                    phase.sums.update(data["sums"])
                    parent, base = phase.stack[-1], len(phase.spans)
                    for name, start, end, par, _ in data["spans"]:
                        phase.add_span(name, start, end, parent if par is None else base + par, phase.op)
                    phase.add_span("cli.exit", data["exiting"], time.perf_counter(), parent, phase.op)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if (proc.returncode, digest) != (code_pin, digest_pin):
                return (
                    f"{' '.join(key)}: exit {proc.returncode}, sha256 {digest[:16]}; "
                    f"pinned exit {code_pin}, sha256 {digest_pin[:16]}; "
                    f"stderr {proc.stderr.decode()[-200:]!r}"
                )
            return None

        return op

    def ops(self, state):
        return [(" ".join(key).replace("{dir}/", ""), self._op(state, key)) for key in state["commands"]]


WORKLOADS = {w.name: w for w in (Sweep(), Gauss125(), Crossed(), Cli())}
