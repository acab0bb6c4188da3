import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from sympy import nextprime

from gradedorders import base_rings
from gradedorders.cli import load_fixture, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


MAXIMAL_TRIVIAL = {
    "kind": "pic-construction",
    "delta": {"ring": "Z", "prime": "2", "entries": [[0, 0], [0, 0]]},
    "radpower": 0,
}

# nextprime(10**30): past base_rings.MAX_NORM, so it is never factored
BIG_PRIME = 10**30 + 57

GLOBAL_SIX = {
    "ring": "Z",
    "n": 2,
    "entries": [
        [{"factors": []}, {"factors": []}],
        [{"gen": 6}, {"factors": []}],
    ],
}


# S_2 grading the staircase at (2) by the identity bimodule
C2_EXPLICIT = {
    "kind": "explicit",
    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
    "group": {"degree": 2, "gens": ["(1 2)"]},
    "components": {"(1 2)": {"entries": [[0, 0], [1, 0]]}},
}

# past the interpreter's limit of 4300 digits for reading an integer
LONG_NUMERAL = "1" * 5000


class TestLongNumerals:
    def test_prime(self, tmp_path, capsys):
        spec = {"delta": {"ring": "Z", "prime": LONG_NUMERAL, "staircase": [1, 1]}}
        code, _, err = run(capsys, "check", write(tmp_path, spec))
        assert code == 2
        assert err.startswith("error: prime: cannot parse Gaussian integer: too long (")

    def test_place_option(self, tmp_path, capsys):
        code, _, err = run(capsys, "classify", write(tmp_path, C2_EXPLICIT), "--place", LONG_NUMERAL)
        assert code == 2
        assert err.startswith("error: prime: cannot parse Gaussian integer: too long (")

    def test_ideal_generator(self, tmp_path, capsys):
        delta = copy.deepcopy(GLOBAL_SIX)
        delta["entries"][1][0] = {"gen": LONG_NUMERAL}
        code, _, err = run(capsys, "picent", write(tmp_path, delta))
        assert code == 2
        assert err.startswith("error: entries: cannot parse Gaussian integer: too long (")

    def test_gamma_scalar(self, tmp_path, capsys):
        spec = copy.deepcopy(C2_EXPLICIT)
        spec["gamma"] = {"(1 2)|(1 2)": [LONG_NUMERAL + "i"]}
        code, _, err = run(capsys, "check", write(tmp_path, spec))
        assert code == 2
        assert err.startswith("error: cannot parse Gaussian integer: too long (")


class TestCheck:
    def test_hereditary_exit_zero(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", write(tmp_path, MAXIMAL_TRIVIAL))
        assert code == 0
        assert "hereditary: True" in out

    def test_not_hereditary_exit_one(self, tmp_path, capsys):
        fixture = load_fixture("semiprime")
        code, out, _ = run(capsys, "check", write(tmp_path, fixture))
        assert code == 1
        assert "inner witness" in out

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("ring", {"kind": "pic-construction", "delta": {"ring": "Q"}}),
            ("staircase", {"delta": {"ring": "Z", "prime": "2", "staircase": ["x", 1]}}),
            ("staircase", {"delta": {"ring": "Z", "prime": "2", "staircase": []}}),
            ("n", {"delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]}, "n": "3"}),
            ("radpower", {"delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]}, "radpower": "two"}),
            (
                "components",
                {
                    "kind": "explicit",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "group": {"degree": 2, "gens": ["(1 2)"]},
                    "components": {"(1 2)": {"perm": [0]}},
                },
            ),
            ("class", {"delta": GLOBAL_SIX, "class": {"5": 1}}),
            ("group", {"kind": "crossed-product", "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]}, "group": {}}),
            ("entries", {"delta": {"ring": "Z", "prime": "2", "entries": [[0, 1], [0]]}}),
            (
                "group.gens",
                {
                    "kind": "crossed-product",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "copies": 2,
                    "group": {"degree": 2, "gens": ["abc"]},
                },
            ),
            (
                "group.gens",
                {
                    "kind": "crossed-product",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "copies": 2,
                    "group": {"degree": 2, "gens": ["(1 2)x"]},
                },
            ),
            (
                "components",
                {
                    "kind": "explicit",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "group": {"degree": 2, "gens": ["(1 2)"]},
                    "components": {"abc": {"entries": [[0, 0], [1, 0]]}},
                },
            ),
            (
                "gamma",
                {
                    "kind": "explicit",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "group": {"degree": 2, "gens": ["(1 2)"]},
                    "gamma": {"x|y": ["1"]},
                },
            ),
            *(
                ("components", {**C2_EXPLICIT, "components": {"(1 2)": {"entries": [[0, 0], [1, 0]], "perm": perm}}})
                for perm in (5, None, [False])
            ),
            ("staircase", {"delta": {"ring": "Z", "prime": "2", "staircase": [1000000, 1]}}),
            (
                "group.degree",
                {
                    "kind": "explicit",
                    "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
                    "group": {"degree": 100000, "gens": ["(1 2)", "(1 2 3 4 5 6 7)"]},
                },
            ),
            ("prime", {"delta": {"ring": "Z", "prime": str(BIG_PRIME), "staircase": [1, 1]}}),
            (
                "entries",
                {
                    "delta": {
                        "ring": "Z",
                        "entries": [[{"factors": []}, {"factors": []}], [{"gen": BIG_PRIME}, {"factors": []}]],
                    },
                    "class": {"2": 1},
                },
            ),
        ],
        ids=[
            "ring",
            "staircase-type",
            "staircase-empty",
            "n",
            "radpower",
            "components",
            "class",
            "group",
            "entries",
            "group.gens-text",
            "group.gens-trailing",
            "components-key",
            "gamma-key",
            "components-perm-int",
            "components-perm-null",
            "components-perm-bool",
            "staircase-oversize",
            "group.degree-oversize",
            "prime-oversize",
            "entries-oversize",
        ],
    )
    def test_schema_violation_names_field(self, tmp_path, capsys, field, bad):
        code, _, err = run(capsys, "check", write(tmp_path, bad))
        assert code == 2
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("scalars", [[], ["1", "7"]], ids=["empty", "two"])
    def test_gamma_needs_one_scalar_per_block(self, tmp_path, capsys, scalars):
        spec = copy.deepcopy(C2_EXPLICIT)
        spec["gamma"] = {"(1 2)|(1 2)": scalars}
        code, out, err = run(capsys, "check", write(tmp_path, spec))
        assert (code, out) == (2, "")
        assert err == f"error: a gamma value has {len(scalars)} scalars, expected 1\n"

    def test_json_report_is_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, MAXIMAL_TRIVIAL)
        _, out1, _ = run(capsys, "check", path, "--json")
        _, out2, _ = run(capsys, "check", path, "--json")
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["schema_version"] == "1"
        assert rep["report"]["hereditary"] is True


def refuse_factoring(n):
    raise AssertionError(f"factorint({n}) called")


def semiprime_entries(n):
    """An n x n order with a product of two 32-bit primes below the
    diagonal: factoring them all would take seconds."""
    rng = random.Random(n)
    primes = iter(nextprime(rng.randrange(2**31, 2**32)) for _ in range(n * n))
    return [
        [{"gen": next(primes) * next(primes)} if i > j else {"factors": []} for j in range(n)]
        for i in range(n)
    ]


class TestPicent:
    def test_oversized_generator_is_not_factored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(base_rings, "factorint", refuse_factoring)
        spec = {
            "ring": "Z",
            "n": 2,
            "entries": [
                [{"factors": []}, {"factors": []}],
                [{"gen": 1000000000000000005490000000000000001989}, {"factors": []}],
            ],
        }
        code, _, err = run(capsys, "picent", write(tmp_path, spec))
        assert code == 2
        assert err.startswith("error: entries: ")

    @pytest.mark.parametrize(
        "entries, message",
        [
            (semiprime_entries(12), "66 generators of norm above 2**32 exceed cap 8"),
            ([[{"factors": []}] * 2, [{"gen": 6}] * 100], "entries are not an n x n matrix"),
        ],
        ids=["semiprimes", "ragged"],
    )
    def test_input_is_checked_before_factoring(self, tmp_path, capsys, monkeypatch, entries, message):
        monkeypatch.setattr(base_rings, "factorint", refuse_factoring)
        code, _, err = run(capsys, "picent", write(tmp_path, {"ring": "Z", "entries": entries}))
        assert code == 2
        assert err == f"error: entries: {message}\n"

    def test_rational_analog(self, tmp_path, capsys):
        code, out, _ = run(capsys, "picent", write(tmp_path, GLOBAL_SIX))
        assert code == 0
        assert "Z/2 at (2)" in out and "Z/2 at (3)" in out

    def test_matrix_ring_trivial(self, tmp_path, capsys):
        trivial = {
            "ring": "Z",
            "n": 2,
            "entries": [
                [{"factors": []}, {"factors": []}],
                [{"factors": []}, {"factors": []}],
            ],
        }
        code, out, _ = run(capsys, "picent", write(tmp_path, trivial), "--json")
        assert code == 0
        assert json.loads(out)["report"]["factors"] == []

    def test_not_hereditary_exit_two(self, tmp_path, capsys):
        bad = {
            "ring": "Z",
            "n": 2,
            "entries": [
                [{"factors": []}, {"factors": []}],
                [{"gen": 4}, {"factors": []}],
            ],
        }
        code, _, err = run(capsys, "picent", write(tmp_path, bad))
        assert code == 2


class TestOracleCheck:
    def test_agreement(self, tmp_path, capsys):
        nonbasic = load_fixture("nonbasic")
        code, out, _ = run(
            capsys, "oracle-check", write(tmp_path, nonbasic), "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["agree"] is True
        assert rep["report"]["places"][0]["rank"] == 18

    def test_checks_every_place_the_verdict_examines(self, tmp_path, capsys):
        # |G| = 2, so the verdict looks at (2) although the order is
        # maximal there; the oracle disagrees at (2) (a known engine
        # defect, pinned in test_oracle)
        three = {
            "ring": "Z",
            "entries": [[{"factors": []}, {"factors": []}], [{"gen": 3}, {"factors": []}]],
        }
        spec = {"kind": "pic-construction", "delta": three, "class": {"3": 1}}
        code, out, _ = run(capsys, "oracle-check", write(tmp_path, spec), "--json")
        places = json.loads(out)["report"]["places"]
        assert [r["place"] for r in places] == ["(2)", "(3)"]
        assert code == 1

    def test_oversized_exit_two(self, tmp_path, capsys):
        big = {
            "kind": "pic-construction",
            "delta": {"ring": "Z", "prime": "2", "staircase": [1] * 15},
            "radpower": 0,
        }
        code, _, err = run(capsys, "oracle-check", write(tmp_path, big))
        assert code == 2


class TestExamples:
    def test_nonbasic_passes(self, capsys):
        code, out, _ = run(capsys, "example", "nonbasic")
        assert code == 0
        assert "FAIL" not in out

    def test_outer_passes(self, capsys):
        code, out, _ = run(capsys, "example", "outer", "--json")
        assert code == 0
        assertions = json.loads(out)["report"]["assertions"]
        assert len(assertions) == 8
        assert all(a["pass"] for a in assertions)

    def test_semiprime_passes(self, capsys):
        code, out, _ = run(capsys, "example", "semiprime", "--d", "3")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "example", "whatever")
        assert code == 2

    def test_classify_fixture(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "classify", write(tmp_path, load_fixture("nonbasic")), "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["outer"] is True


# ---------------------------------------------------------------------------
# Fuzzing the input boundary: mutated fixtures must exit 0, 1 or 2


OVERSIZE = (10**6 + 1, 2**31 - 1, 2**63, 10**30, -(10**9))

_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from(OVERSIZE),
    st.text(max_size=6),
    st.sampled_from(["(1 2)", "(1 2 3)", "1+2i", "2+1i", "3", "()", "(1 2)|(1 2)"]),
)
_value = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_fixture(draw):
    obj = copy.deepcopy(load_fixture(draw(st.sampled_from(["nonbasic", "outer", "semiprime"]))))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(obj, (dict, list)) or not obj:
            break
        # the deepest paths first, so that shrinking keeps a mutated leaf
        path = draw(st.sampled_from(sorted(_paths(obj), key=len, reverse=True)[:-1]))
        action = draw(st.sampled_from(["oversize", "replace", "delete"]))
        new = draw(st.sampled_from(OVERSIZE)) if action == "oversize" else draw(_value)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return obj


@given(
    raw=_mutated_fixture(),
    command=st.sampled_from(["check", "classify", "oracle-check", "picent"]),
    as_json=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_mutated_fixtures_exit_cleanly(tmp_path_factory, raw, command, as_json):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(raw))
    argv = [command, str(path)] + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
