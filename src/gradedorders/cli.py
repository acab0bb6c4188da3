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
    MAX_EXPONENT,
    BaseRing,
    FractionalIdealR,
    KElem,
    MaximalIdeal,
    RingError,
    _norm,
    check_factoring_budget,
    element_valuation,
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
    FiniteGroup,
    GroupError,
    Perm,
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
# JSON input
#
# Only this module knows the input format.  Every value is read by one of
# the typed readers below, and each refusal is an InputError whose text
# starts with the field it names.  A refusal text is a str.format template
# over the value read and the bounds lo and hi.

_INTEGER = "expected an integer, got {value!r}"
_MATRIX = "expected a matrix (list of lists)"
# (lo, hi, refusal) of the bounded integers read in several fields
_EXPONENT = (-MAX_EXPONENT, MAX_EXPONENT, "exponent {value} exceeds cap {hi}")
_DIMENSION = (None, MAX_DIMENSION, "dimension {value} exceeds cap {hi}")


def _integer(value, field: str, refusal: str = _INTEGER) -> int:
    """An integer; a JSON boolean is not one."""
    if type(value) is not int:
        raise InputError(f"{field}: " + refusal.format(value=value))
    return value


def _bounded(value, field: str, lo: int | None, hi: int | None, refusal: str) -> int:
    """An integer from lo to hi; None leaves that side open."""
    n = _integer(value, field)
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        raise InputError(f"{field}: " + refusal.format(value=n, lo=lo, hi=hi))
    return n


def _object(value, field: str, refusal: str = "expected an object", of=None) -> dict:
    """A JSON object; `of`, another reader, reads each of its values."""
    if not isinstance(value, dict):
        raise InputError(f"{field}: " + refusal.format(value=value))
    for v in value.values() if of else ():
        of(v, field, refusal)
    return value


def _list(value, field: str, refusal: str, of=None) -> list:
    """A JSON list; `of`, another reader, reads each of its items."""
    if not isinstance(value, list):
        raise InputError(f"{field}: " + refusal.format(value=value))
    for v in value if of else ():
        of(v, field, refusal)
    return value


def _matrix(value, field: str, exponents: bool = False) -> list[list]:
    """At most MAX_DIMENSION rows, with exponents for entries if asked."""
    rows = _list(value, field, _MATRIX, of=_list)
    _bounded(len(rows), field, *_DIMENSION)
    for row in rows if exponents else ():
        for x in row:
            _bounded(x, field, *_EXPONENT)
    return rows


def _cycle(value, degree: int, field: str) -> Perm:
    """A permutation of `degree` points in 1-based cycle notation, "(1 2)(3 4)"."""
    try:
        return perm_from_cycles(value, degree)
    except GroupError as e:
        raise InputError(f"{field}: {e}") from None


def _scalar(value, field: str, ring: BaseRing) -> KElem:
    """An element of the ring: a JSON integer, or text such as "5", "1+2i"
    or "-i" (over Z without an imaginary part)."""
    try:
        z = parse_gaussian(str(value))
    except RingError as e:
        raise InputError(f"{field}: {e}") from None
    if ring == ZZ and z.b:
        raise InputError(f"{field}: {value!r} is not an element of Z")
    return z


def _group(value) -> FiniteGroup:
    """{"degree": d, "gens": [cycle strings]}: the group the generators span."""
    refusal = "expected an object with an integer degree"
    degree = _integer(_object(value, "group", refusal).get("degree"), "group", refusal)
    degree = _bounded(degree, "group.degree", 1, MAX_DEGREE, "expected a degree from {lo} to {hi}, got {value}")
    gens = _list(value.get("gens", []), "group.gens", "expected a list of cycle strings")
    return FiniteGroup(degree, tuple(_cycle(s, degree, "group.gens") for s in gens))


def _ideal_factors(ring: BaseRing, value) -> list[tuple[KElem, int]]:
    """An ideal, {"gen": g} or {"factors": [[g, e], ...]}, as (generator,
    exponent) pairs, without factoring anything."""
    cell = _object(value, "entries", "ideal must be an object, got {value!r}")
    if "gen" in cell:
        pairs = [(cell["gen"], 1)]
    elif "factors" in cell:
        refusal = "ideal factors must be a list of [generator, integer exponent] pairs"
        pairs = _list(cell["factors"], "entries", refusal, of=_list)
        if any(len(f) != 2 for f in pairs):
            raise InputError(f"entries: {refusal}")
        for _, e in pairs:
            _integer(e, "entries", refusal)
    else:
        raise InputError("entries: ideal object needs 'gen' or 'factors'")
    out = []
    for gen, e in pairs:
        e = _bounded(e, "entries", *_EXPONENT)
        out.append((_scalar(gen, "entries", ring), e))
    return out


def _ideal(ring: BaseRing, factors) -> FractionalIdealR:
    """The product of the generators' principal ideals to their exponents."""
    out = FractionalIdealR.one(ring)
    for z, e in factors:
        out = out * FractionalIdealR.principal(ring, z) ** e
    return out


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


def parse_tiled_local(obj) -> ExponentMatrix:
    ring = _parse_ring(obj)
    if "prime" not in obj:
        raise InputError("prime: required for a local tiled order")
    place = _parse_place(ring, str(obj["prime"]))
    if "staircase" in obj:
        refusal = "expected a non-empty list of positive block sizes"
        blocks = _list(obj["staircase"], "staircase", refusal, of=_integer)
        # an empty staircase has no positive block
        _bounded(min(blocks, default=0), "staircase", 1, None, refusal)
        _bounded(sum(blocks), "staircase", *_DIMENSION)
        return hereditary_staircase(tuple(blocks), ring, place)
    try:
        return validate_order(_matrix(obj.get("entries"), "entries", exponents=True), ring, place)
    except OrderError as e:
        raise InputError(f"entries: {e}") from None


def parse_tiled_global(obj) -> GlobalTiledOrder:
    ring = _parse_ring(_object(obj, "input", "expected a JSON object"))
    # read and bound every generator before any is factored
    cells = [[_ideal_factors(ring, cell) for cell in row] for row in _matrix(obj.get("entries"), "entries")]
    if any(len(row) != len(cells) for row in cells):
        raise InputError("entries: entries are not an n x n matrix")
    try:
        check_factoring_budget(ring, (z for row in cells for cell in row for z, _ in cell))
        return validate_global_order(ring, [[_ideal(ring, cell) for cell in row] for row in cells])
    except (RingError, OrderError) as e:
        raise InputError(f"entries: {e}") from None


def _radical_power(delta: ExponentMatrix, spec) -> FractionalIdealMatrix:
    """The grading bimodule of a local pic-construction."""
    k = _bounded(spec.get("radpower", 1), "radpower", *_EXPONENT)
    k = _bounded(k, "radpower", 0, None, "expected a non-negative power, got {value}")
    return ideal_power(radical(delta), k)


def _class_representative(delta: GlobalTiledOrder, spec):
    """The grading bimodule of a global pic-construction, from its Picard
    class table."""
    table = _object(spec.get("class"), "class", "pic-construction over a global base needs a class table")
    classes = {
        _parse_place(delta.ring, text): _bounded(k, "class", *_EXPONENT) for text, k in table.items()
    }
    try:
        return construct_class_representative(delta, PicClass.of(classes))
    except PicError as e:
        raise InputError(f"class: {e}") from None


def _parse_explicit(obj, delta: ExponentMatrix) -> GradedOrder:
    group = _group(obj.get("group", {}))
    base = LocalBase((delta,))
    comps = {}
    table = _object(obj.get("components", {}), "components", "expected an object of component objects", of=_object)
    for key, cobj in table.items():
        g = _cycle(key, group.degree, "components")
        if g not in group:
            raise InputError(f"components: {key} is not in the group")
        if "mats" in cobj:
            mats = cobj["mats"]
        elif "entries" in cobj:
            mats = [cobj["entries"]]
        else:
            raise InputError(f"components: {key} needs 'entries' or 'mats'")
        field = f"components: {key}"
        _list(mats, field, "expected a list of matrices")
        perm = _list(cobj.get("perm", [0]), field, "expected 'perm' to be a list of integers", of=_integer)
        comps[g] = LocalComponent(
            tuple(perm),
            tuple(tuple(map(tuple, _matrix(mat, "components", exponents=True))) for mat in mats),
        )
    refusal = "expected an object mapping 'g|h' to a list of scalars"
    table = _object(obj.get("gamma", {}), "gamma", refusal, of=_list)
    if any(key.count("|") != 1 for key in table):
        raise InputError(f"gamma: {refusal}")
    gamma = {}
    for key, scalars in table.items():
        gk, hk = key.split("|")
        pair = (_cycle(gk, group.degree, "gamma"), _cycle(hk, group.degree, "gamma"))
        if any(g not in group for g in pair):
            raise InputError(f"gamma: {key}: a grade is not in the group")
        gamma[pair] = tuple(_scalar(s, "gamma", delta.ring) for s in scalars)
        if any(z.is_zero() for z in gamma[pair]):
            raise InputError(f"gamma: {key}: a scalar is zero")
    return graded_order(group, base, comps, gamma)


def _parse_crossed(obj, delta: ExponentMatrix) -> GradedOrder:
    copies = _bounded(obj.get("copies", 1), "copies", 1, None, "expected a positive count, got {value}")
    group = _group(obj.get("group", {}))
    if group.degree != copies:
        raise InputError("group: degree must match the number of summands")
    base = LocalBase(tuple(delta for _ in range(copies)))
    idm = Monomial.identity(delta.n)
    action = {g: (g, tuple(idm for _ in range(copies))) for g in group.elements}
    return construct_crossed_product(base, group, CrossedProductDatum(action))


def parse_graded(obj) -> GradedOrder:
    obj = _object(obj, "input", "expected a JSON object")
    kind = obj.get("kind", "pic-construction")
    dobj = _object(obj.get("delta", {}), "delta")
    local = "prime" in dobj or "staircase" in dobj
    delta = parse_tiled_local(dobj) if local else parse_tiled_global(dobj)
    if kind == "pic-construction":
        x = _radical_power(delta, obj) if local else _class_representative(delta, obj)
        n = obj.get("n")
        if n is not None:
            # the cyclic group of order n permutes n points
            n = _bounded(n, "n", None, MAX_DEGREE, "order {value} exceeds cap {hi}")
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


def ideal_to_json(ideal: FractionalIdealR) -> dict:
    return {"factors": [[str(m.generator), e] for m, e in ideal.factors]}


def group_to_json(g: FiniteGroup) -> dict:
    return {"degree": g.degree, "gens": [perm_to_cycles(p) for p in g.generators]}


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
    # an integer literal past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as e:
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
    raw["group"] = group_to_json(symmetric_group(d))
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
