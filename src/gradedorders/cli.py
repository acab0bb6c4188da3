"""Command-line entry point.

Subcommands take JSON descriptions of tiled/graded orders, run the
checkers, and emit a report.  ``--json`` prints the report as canonical
JSON (sorted keys, no timings) so identical inputs give byte-identical
output; without it a short human-readable account is printed instead.

Exit codes: 0 = verdict positive / all assertions pass, 1 = verdict
negative or an assertion failed, 2 = invalid input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from importlib import resources

from .base_rings import (
    ZZ,
    ZI,
    BaseRing,
    MaximalIdeal,
    RingError,
    _norm,
    check_exponent,
    check_factoring_budget,
    element_valuation,
    ideal_from_json,
    ideal_generators,
    maximal_ideals_above,
    parse_gaussian,
    place_key,
)
from .graded import (
    GradedError,
    GradedOrder,
    CrossedProductDatum,
    Monomial,
    block_corner_graded_order,
    construct_crossed_product,
    construct_from_pic,
    corner_graded_order,
    graded_order,
    inner_elements,
    is_crossed_product,
    validate_strong_grading,
    LocalBase,
    LocalComponent,
)
from .groups import (
    MAX_DEGREE,
    GroupError,
    group_from_json,
    perm_from_cycles,
    perm_to_cycles,
    sylow_subgroup,
    symmetric_group,
)
from .oracle import OracleError, oracle_report
from .pic import (
    PicClass,
    PicError,
    construct_class_representative,
    picent_global,
)
from .semiprime import main_hereditary_verdict, orbit_decompose
from .tiled import (
    MAX_DIMENSION,
    ExponentMatrix,
    FractionalIdealMatrix,
    GlobalTiledOrder,
    OrderError,
    hereditary_staircase,
    ideal_power,
    radical,
    validate_global_order,
    validate_order,
)

SCHEMA_VERSION = "1"


class InputError(Exception):
    """Bad or malformed input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# JSON parsing


def _parse_ring(obj) -> BaseRing:
    kind = obj.get("ring", "Z")
    if kind == "Z":
        return ZZ
    if kind == "Zi":
        return ZI
    raise InputError(f"ring: unknown ring {kind!r}")


def _parse_place(ring: BaseRing, text: str) -> MaximalIdeal:
    text = text.strip().strip("()")
    try:
        z = parse_gaussian(text)
        if ring == ZZ:
            if z.b != 0:
                raise InputError(f"prime: {text!r} is not a rational prime")
            return maximal_ideals_above(ZZ, abs(z.a))[0]
        # over Z[i] the place is the one whose generator is an associate of
        # z: z lies in it and has its norm.  A prime off both axes has a
        # rational prime norm; one on an axis is a rational prime up to a unit
        norm = _norm(ring, z)
        p = norm if z.a and z.b else abs(z.a or z.b)
        for m in maximal_ideals_above(ring, p):
            if m.residue_size == norm and element_valuation(z, m):
                return m
    except RingError as e:
        raise InputError(f"prime: {e}") from None
    raise InputError(f"prime: cannot identify the place of {text!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value, field: str) -> int:
    if not _is_int(value):
        raise InputError(f"{field}: expected an integer, got {value!r}")
    return value


def _exponent(value, field: str) -> int:
    try:
        check_exponent(_as_int(value, field))
    except RingError as e:
        raise InputError(f"{field}: {e}") from None
    return value


def _perm(text, degree: int, field: str):
    try:
        return perm_from_cycles(text, degree)
    except GroupError as e:
        raise InputError(f"{field}: {e}") from None


def _matrix(value, field: str, exponents: bool = False) -> list[list]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InputError(f"{field}: expected a matrix (list of lists)")
    _check_dimension(len(value), field)
    if exponents:
        for row in value:
            for x in row:
                _exponent(x, field)
    return value


def _check_dimension(n: int, field: str) -> None:
    if n > MAX_DIMENSION:
        raise InputError(f"{field}: dimension {n} exceeds cap {MAX_DIMENSION}")


def parse_tiled_local(obj) -> ExponentMatrix:
    ring = _parse_ring(obj)
    if "prime" not in obj:
        raise InputError("prime: required for a local tiled order")
    place = _parse_place(ring, str(obj["prime"]))
    if "staircase" in obj:
        blocks = obj["staircase"]
        if not isinstance(blocks, list) or not blocks or not all(
            _is_int(b) and b > 0 for b in blocks
        ):
            raise InputError("staircase: expected a non-empty list of positive block sizes")
        _check_dimension(sum(blocks), "staircase")
        return hereditary_staircase(tuple(blocks), ring, place)
    try:
        return validate_order(_matrix(obj.get("entries"), "entries", exponents=True), ring, place)
    except OrderError as e:
        raise InputError(f"entries: {e}") from None


def parse_tiled_global(obj) -> GlobalTiledOrder:
    if not isinstance(obj, dict):
        raise InputError("input: expected a JSON object")
    ring = _parse_ring(obj)
    entries = _matrix(obj.get("entries"), "entries")
    try:
        # read and bound every generator before any is factored
        gens = [[ideal_generators(ring, cell) for cell in row] for row in entries]
        if any(len(row) != len(gens) for row in gens):
            raise OrderError("entries are not an n x n matrix")
        check_factoring_budget(ring, (z for row in gens for cell in row for z, _ in cell))
        rows = [[ideal_from_json(ring, cell) for cell in row] for row in entries]
        return validate_global_order(ring, rows)
    except (RingError, OrderError) as e:
        raise InputError(f"entries: {e}") from None


def _radical_power(delta: ExponentMatrix, spec) -> FractionalIdealMatrix:
    """The grading bimodule of a local pic-construction."""
    k = _exponent(spec.get("radpower", 1), "radpower")
    if k < 0:
        raise InputError(f"radpower: expected a non-negative power, got {k}")
    return ideal_power(radical(delta), k)


def _class_representative(delta: GlobalTiledOrder, spec):
    """The grading bimodule of a global pic-construction, from its Picard
    class table."""
    table = spec.get("class")
    if not isinstance(table, dict):
        raise InputError("class: pic-construction over a global base needs a class table")
    classes = {
        _parse_place(delta.ring, text): _exponent(k, "class") for text, k in table.items()
    }
    try:
        return construct_class_representative(delta, PicClass.of(classes))
    except PicError as e:
        raise InputError(f"class: {e}") from None


def _parse_explicit(obj, delta: ExponentMatrix) -> GradedOrder:
    group = group_from_json(obj.get("group", {}))
    base = LocalBase((delta,))
    comps = {}
    table = obj.get("components", {})
    if not isinstance(table, dict) or not all(isinstance(c, dict) for c in table.values()):
        raise InputError("components: expected an object of component objects")
    for key, cobj in table.items():
        g = _perm(key, group.degree, "components")
        if "mats" in cobj:
            mats = cobj["mats"]
        elif "entries" in cobj:
            mats = [cobj["entries"]]
        else:
            raise InputError(f"components: {key} needs 'entries' or 'mats'")
        if not isinstance(mats, list):
            raise InputError(f"components: {key}: expected a list of matrices")
        perm = cobj.get("perm", [0])
        if not isinstance(perm, list) or not all(_is_int(i) for i in perm):
            raise InputError(f"components: {key}: expected 'perm' to be a list of integers")
        comps[g] = LocalComponent(
            tuple(perm),
            tuple(tuple(map(tuple, _matrix(mat, "components", exponents=True))) for mat in mats),
        )
    gamma = {}
    table = obj.get("gamma", {})
    if not isinstance(table, dict) or not all(
        key.count("|") == 1 and isinstance(v, list) for key, v in table.items()
    ):
        raise InputError("gamma: expected an object mapping 'g|h' to a list of scalars")
    for key, scalars in table.items():
        gk, hk = key.split("|")
        g = _perm(gk, group.degree, "gamma")
        h = _perm(hk, group.degree, "gamma")
        gamma[(g, h)] = tuple(parse_gaussian(str(s)) for s in scalars)
    return graded_order(group, base, comps, gamma)


def _parse_crossed(obj, delta: ExponentMatrix) -> GradedOrder:
    copies = _as_int(obj.get("copies", 1), "copies")
    if copies < 1:
        raise InputError(f"copies: expected a positive count, got {copies}")
    group = group_from_json(obj.get("group", {}))
    if group.degree != copies:
        raise InputError("group: degree must match the number of summands")
    base = LocalBase(tuple(delta for _ in range(copies)))
    idm = Monomial.identity(delta.n)
    action = {g: (g, tuple(idm for _ in range(copies))) for g in group.elements}
    return construct_crossed_product(base, group, CrossedProductDatum(action))


def parse_graded(obj) -> GradedOrder:
    if not isinstance(obj, dict):
        raise InputError("input: expected a JSON object")
    kind = obj.get("kind", "pic-construction")
    dobj = obj.get("delta", {})
    if not isinstance(dobj, dict):
        raise InputError("delta: expected an object")
    local = "prime" in dobj or "staircase" in dobj
    delta = parse_tiled_local(dobj) if local else parse_tiled_global(dobj)
    if kind == "pic-construction":
        x = _radical_power(delta, obj) if local else _class_representative(delta, obj)
        n = obj.get("n")
        if n is not None and _as_int(n, "n") > MAX_DEGREE:
            # the cyclic group of order n permutes n points
            raise InputError(f"n: order {n} exceeds cap {MAX_DEGREE}")
        return construct_from_pic(delta, x, n)
    if kind == "crossed-product":
        if not local:
            raise InputError("kind: crossed products are supported over local bases")
        return _parse_crossed(obj, delta)
    if kind == "explicit":
        if not local:
            raise InputError("kind: explicit graded orders are supported over local bases")
        return _parse_explicit(obj, delta)
    raise InputError(f"kind: unknown construction {kind!r}")


# ---------------------------------------------------------------------------
# Reports


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(command: str, raw_input, body: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": _digest(raw_input),
        "report": body,
    }


def _emit(args, report: dict, prose: list[str], elapsed: float) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in prose:
            print(line)
        print(f"[{report['command']} {report['input_digest']} in {elapsed:.2f}s]")


def _verdict_body(v) -> dict:
    breakdown = []
    for e in v.breakdown:
        breakdown.append(
            {
                "orbit": e.orbit,
                "p": e.prime,
                "place": str(e.place),
                "sylow": sorted(perm_to_cycles(h) for h in e.sylow.elements),
                "inner_witness": (
                    perm_to_cycles(e.inner_witness)
                    if e.inner_witness is not None
                    else None
                ),
            }
        )
    return {
        "hereditary": v.hereditary,
        "delta_hereditary": v.delta_hereditary,
        "breakdown": breakdown,
    }


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}") from None
    except ValueError as e:  # an integer literal past the digit limit
        raise InputError(f"{path}: invalid JSON: {e}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    raw = _load(args.input)
    order = parse_graded(raw)
    v = main_hereditary_verdict(order)
    body = _verdict_body(v)
    rep = _report("check", raw, body)
    prose = [f"hereditary: {v.hereditary} (identity component: {v.delta_hereditary})"]
    for e in v.breakdown:
        w = (
            f"inner witness {perm_to_cycles(e.inner_witness)}"
            if e.inner_witness is not None
            else "outer"
        )
        prose.append(f"  orbit {e.orbit}, p = {e.prime} at {e.place}: {w}")
    _emit(args, rep, prose, args._elapsed())
    return 0 if v.hereditary else 1


def cmd_picent(args) -> int:
    raw = _load(args.input)
    pg = picent_global(parse_tiled_global(raw))
    body = {
        "factors": [
            {"cyclic_order": lp.cyclic_order, "place": str(m)}
            for m, lp in pg.components
        ]
    }
    rep = _report("picent", raw, body)
    _emit(args, rep, [str(pg)], args._elapsed())
    return 0


def cmd_classify(args) -> int:
    raw = _load(args.input)
    order = parse_graded(raw)
    if args.place:
        order = order.localize(_parse_place(order.base.ring, args.place))
    inner = inner_elements(order, order.group)
    context = f"at {order.base.place}" if order.is_local else "global"
    body = {
        "context": context,
        "inner": sorted(perm_to_cycles(h) for h in inner),
        "outer": len(inner) == 1,
    }
    rep = _report("classify", raw, body)
    prose = [
        f"inner elements ({context}): " + (", ".join(body["inner"]) or "none"),
        f"outer grading: {body['outer']}",
    ]
    _emit(args, rep, prose, args._elapsed())
    return 0


def cmd_oracle_check(args) -> int:
    raw = _load(args.input)
    order = parse_graded(raw)
    if args.place:
        places = [_parse_place(order.base.ring, args.place)]
    else:
        # the verdict also examines places off the data support
        verdict = main_hereditary_verdict(order)
        places = set(order.places()) | {e.place for e in verdict.breakdown}
        places = sorted(places, key=place_key)
    reports = [oracle_report(order, m) for m in places]
    body = {"places": reports, "agree": all(r["agree"] for r in reports)}
    rep = _report("oracle-check", raw, body)
    prose = [
        f"  {r['place']}: rank {r['rank']}, oracle {r['oracle']}, "
        f"engine {r['engine']}, agree {r['agree']}"
        for r in reports
    ]
    _emit(args, rep, prose, args._elapsed())
    return 0 if body["agree"] else 1


# ---------------------------------------------------------------------------
# Bundled examples


def load_fixture(name: str):
    ref = resources.files("gradedorders") / "fixtures" / f"{name}.json"
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError:
        raise InputError(f"no bundled fixture {name!r}") from None


def _assertions_outer(raw):
    order = parse_graded(raw)
    delta = parse_tiled_global(raw["delta"])
    pg = picent_global(delta)
    yield "Picent(delta) = Z/5 + Z/5", [lp.cyclic_order for _, lp in pg.components] == [5, 5]
    yield "grading outer globally", len(inner_elements(order, order.group)) == 1
    supp = order.places()
    inner_at = [len(inner_elements(order.localize(m), order.group)) for m in supp]
    yield "grading inner at one completion", sorted(inner_at) == [1, 5]
    v = main_hereditary_verdict(order)
    yield "not hereditary", not v.hereditary
    witness_places = {
        str(e.place) for e in v.breakdown if e.inner_witness is not None
    }
    yield "witness at a place over 5", witness_places and all(
        m.residue_char == 5 for m in supp if str(m) in witness_places
    )
    reports = [oracle_report(order, m) for m in supp]
    for r in reports:
        yield f"oracle agrees at {r['place']}", r["agree"]
    yield "some completion fails the oracle", not all(r["oracle"] for r in reports)


def _assertions_nonbasic(raw):
    order = parse_graded(raw)
    yield "strongly graded", validate_strong_grading(order)[0]
    ok, _ = is_crossed_product(order)
    yield "not a crossed product", not ok
    corner = corner_graded_order(order, (0, order.base.blocks[0].n - 1))
    ok_c, _ = is_crossed_product(corner)
    yield "basic corner is a crossed product", ok_c


def _assertions_semiprime(raw, d: int):
    raw = dict(raw)
    raw["copies"] = d
    g = symmetric_group(d)
    raw["group"] = {"degree": d, "gens": [perm_to_cycles(p) for p in g.generators]}
    order = parse_graded(raw)
    yield "strongly graded", validate_strong_grading(order)[0]
    orbits = orbit_decompose(order)
    yield "one orbit", len(orbits) == 1
    stab = orbits[0].stabilizer
    yield f"stabilizer = S_{d-1}", stab.order == symmetric_group(d - 1).order
    corner = block_corner_graded_order(order, orbits[0].representative, stab)
    yield "corner is the stabilizer group ring", all(
        corner.components[h].mats[0] == corner.base.blocks[0].entries
        for h in stab.elements
    )
    p = corner.base.place.residue_char
    syl = sylow_subgroup(stab, p)
    yield "corner Inn(P) = P", set(inner_elements(corner, syl)) == set(syl.elements)
    yield "full-order Inn(P) = 1", len(inner_elements(order, syl)) == 1
    v = main_hereditary_verdict(order)
    yield "not hereditary", not v.hereditary


def cmd_example(args) -> int:
    name = args.name
    if name not in ("nonbasic", "outer", "semiprime"):
        raise InputError(f"unknown example {name!r}")
    # below degree 3 the stabilizer S_(d-1) has no element of order 2, so the
    # semiprime example's order is hereditary and its claims do not apply
    least = 3 if name == "semiprime" else 1
    if not least <= args.d <= MAX_DEGREE:
        raise InputError(f"d: expected a degree from {least} to {MAX_DEGREE}, got {args.d}")
    raw = load_fixture(name)
    if name == "outer":
        gen = _assertions_outer(raw)
    elif name == "nonbasic":
        gen = _assertions_nonbasic(raw)
    else:
        gen = _assertions_semiprime(raw, args.d)
    results = [(label, bool(ok)) for label, ok in gen]
    body = {"example": name, "assertions": [
        {"assertion": label, "pass": ok} for label, ok in results
    ]}
    rep = _report("example", {"name": name, "d": args.d}, body)
    prose = [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in results]
    _emit(args, rep, prose, args._elapsed())
    return 0 if all(ok for _, ok in results) else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradedorders",
        description="Strongly graded tiled orders: construction and hereditariness checks",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("input", help="path to a JSON description")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("check", help="hereditariness verdict for a graded order")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("picent", help="Picard group of a global tiled order")
    common(p)
    p.set_defaults(fn=cmd_picent)

    p = sub.add_parser("classify", help="inner/outer classification of the grading")
    common(p)
    p.add_argument("--place", help="classify at one place instead of globally")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("oracle-check", help="independent structure-constant cross-check")
    common(p)
    p.add_argument("--place", help="check a single place")
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("example", help="run a bundled worked example")
    p.add_argument("name", help="nonbasic | outer | semiprime")
    p.add_argument("--d", type=int, default=3, help="degree for the semiprime example")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(fn=cmd_example)
    return ap


def _join_place(argv: list) -> list:
    """argparse reads a separate value that starts with '-' (as in
    `--place -2-i`) as an option, so such a value joins `--place=`."""
    out = []
    for a in argv:
        if out and out[-1] == "--place" and a.startswith("-") and not a.startswith("--"):
            out[-1] = f"--place={a}"
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_place(sys.argv[1:] if argv is None else argv))
    t0 = time.monotonic()
    args._elapsed = lambda: time.monotonic() - t0
    try:
        return args.fn(args)
    except (InputError, OracleError, OrderError, GradedError, GroupError, RingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
