"""End-to-end acceptance gate.

Each test here pins one of the headline behaviors of the package on the
worked examples: the Gaussian 5x5 order with its outer-but-locally-inner
grading, the nonbasic Z/2 grading, the symmetric-group sum, the two
property suites (conjugation invariance and crossed-product recognition),
the engine-versus-oracle equivalence sweep, and Sylow-choice invariance.
All arithmetic is exact; every comparison is equality.  The two slow
tests carry explicit wall-clock budgets (60 s and 600 s).
"""
import itertools
import json
import random
import time

import pytest

from gradedorders.base_rings import (
    ZZ,
    ZI,
    FractionalIdealR,
    KElem,
    maximal_ideals_above,
)
from gradedorders.cli import load_fixture, main, parse_graded
from gradedorders.graded import (
    CrossedProductDatum,
    LocalBase,
    Monomial,
    block_corner_graded_order,
    construct_crossed_product,
    construct_from_pic,
    corner_graded_order,
    graded_order,
    identity_component,
    inner_elements,
    is_crossed_product,
    validate_strong_grading,
)
from gradedorders.groups import (
    FiniteGroup,
    all_sylow_subgroups,
    cyclic_group,
    perm_from_cycles,
    pinv,
    pmul,
    symmetric_group,
)
from gradedorders.oracle import flatten, hereditary_oracle, oracle_report
from gradedorders.pic import PicClass, construct_class_representative, picent_global
from gradedorders.semiprime import main_hereditary_verdict, orbit_decompose
from gradedorders.tiled import (
    ExponentMatrix,
    hereditary_staircase,
    ideal_multiply,
    is_hereditary_local,
    radical,
    validate_global_order,
)

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]
P5, Q5 = maximal_ideals_above(ZI, 5)
ONE = KElem.of(1, 0)


@pytest.fixture(scope="module")
def gaussian_delta():
    st = hereditary_staircase((1,) * 5)
    rows = [
        [
            FractionalIdealR.from_factors(
                ZI, {P5: st.entries[i][j], Q5: st.entries[i][j]}
            )
            for j in range(5)
        ]
        for i in range(5)
    ]
    return validate_global_order(ZI, rows)


@pytest.fixture(scope="module")
def gaussian_order(gaussian_delta):
    x = construct_class_representative(gaussian_delta, PicClass.of({Q5: 1}))
    return construct_from_pic(gaussian_delta, x)


def trivial_crossed(delta, group, copies, block_map=None):
    """Crossed product with trivial twisting; block_map sends a group
    element to its permutation of the summands (default: itself)."""
    base = LocalBase(tuple(delta for _ in range(copies)))
    idm = Monomial(tuple(range(delta.n)), tuple(ONE for _ in range(delta.n)))
    block_map = block_map or (lambda g: g)
    action = {
        g: (block_map(g), tuple(idm for _ in range(copies)))
        for g in group.elements
    }
    return construct_crossed_product(base, group, CrossedProductDatum(action))


# ---------------------------------------------------------------------------
# 1. Picard group of the Gaussian 5x5 order


def test_criterion_1_picent(tmp_path, capsys):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(load_fixture("outer")["delta"]))
    t0 = time.monotonic()
    code = main(["picent", "--json", str(path)])
    elapsed = time.monotonic() - t0
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["report"]["factors"] == [
        {"cyclic_order": 5, "place": "(1+2i)"},
        {"cyclic_order": 5, "place": "(2+1i)"},
    ]
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Outer globally, inner at one completion


def test_criterion_2_classification(gaussian_order):
    t0 = time.monotonic()
    full = gaussian_order.group.subgroup(tuple(gaussian_order.group.elements))
    assert len(inner_elements(gaussian_order, full)) == 1
    assert len(inner_elements(gaussian_order.localize(P5), full)) == 5
    assert len(inner_elements(gaussian_order.localize(Q5), full)) == 1
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Verdict plus rank-125 oracle agreement at both places


def test_criterion_3_verdict_and_oracle(gaussian_order):
    v = main_hereditary_verdict(gaussian_order)
    assert not v.hereditary and v.delta_hereditary
    witnesses = [e for e in v.breakdown if e.inner_witness is not None]
    assert witnesses and all(e.place.residue_char == 5 for e in witnesses)
    t0 = time.monotonic()
    for m in (P5, Q5):
        r = oracle_report(gaussian_order, m)
        assert r["rank"] == 125
        assert r["agree"], r
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. The nonbasic Z/2 grading and its basic corner


def test_criterion_4_nonbasic():
    t0 = time.monotonic()
    delta = hereditary_staircase((2, 1), ZZ, M2)
    order = construct_from_pic(delta, radical(delta))
    assert order.group.order == 2
    ok, _ = validate_strong_grading(order)
    assert ok
    crossed, _ = is_crossed_product(order)
    assert not crossed
    corner = corner_graded_order(order, (0, 2))
    crossed_corner, _ = is_crossed_product(corner)
    assert crossed_corner
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. The symmetric-group sum at d = 3


def test_criterion_5_symmetric_sum():
    t0 = time.monotonic()
    delta = hereditary_staircase((1, 1), ZZ, M2)
    order = trivial_crossed(delta, symmetric_group(3), 3)
    corners = orbit_decompose(order)
    assert len(corners) == 1
    stab = corners[0].stabilizer
    assert stab.order == 2
    corner = block_corner_graded_order(order, corners[0].representative, stab)
    # the corner is the stabilizer group ring over one summand
    assert all(
        corner.components[h].mats[0] == delta.entries for h in stab.elements
    )
    syl = corner.group.subgroup(tuple(stab.elements))
    assert set(inner_elements(corner, syl)) == set(stab.elements)
    full_syl = order.group.subgroup(tuple(stab.elements))
    assert len(inner_elements(order, full_syl)) == 1
    assert not main_hereditary_verdict(order).hereditary
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6. Conjugation invariance of the inner subgroup


def _conjugation_corpus():
    d2 = hereditary_staircase((1, 1), ZZ, M2)
    d3 = hereditary_staircase((1, 1), ZZ, M3)
    s3, s4 = symmetric_group(3), symmetric_group(4)
    sign = {g: perm_from_cycles("()", 2) if _is_even(g) else (1, 0) for g in s3.elements}
    corpus = [
        trivial_crossed(d2, s3, 3),
        trivial_crossed(d3, s3, 3),
        trivial_crossed(d2, s4, 4),
        trivial_crossed(d2, s3, 2, block_map=lambda g: sign[g]),
        construct_from_pic(d2, radical(d2)),
        construct_from_pic(hereditary_staircase((1, 1, 1), ZZ, M2),
                           radical(hereditary_staircase((1, 1, 1), ZZ, M2))),
    ]
    assert all(o.group.order <= 24 for o in corpus)
    return corpus


def _is_even(p):
    seen, parity = set(), 0
    for i in range(len(p)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def test_criterion_6_conjugation_invariance():
    rng = random.Random(2026)
    corpus = _conjugation_corpus()
    checked = 0
    while checked < 120:
        order = rng.choice(corpus)
        group = order.group
        gens = tuple(
            rng.choice(group.elements) for _ in range(rng.randint(1, 2))
        )
        sub = group.subgroup(gens)
        g = rng.choice(group.elements)
        conj = group.subgroup(
            tuple(pmul(pmul(pinv(g), x), g) for x in sub.generators)
        )
        lhs = set(inner_elements(order, conj))
        rhs = {pmul(pmul(pinv(g), x), g) for x in inner_elements(order, sub)}
        assert lhs == rhs, (order.group, gens, g)
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# 7. Rad-power gradings over basic staircases are crossed products


def test_criterion_7_crossed_product_recognition():
    for n in range(1, 6):
        delta = hereditary_staircase((1,) * n, ZZ, M2)
        lp_order = n  # radical class has order n over the basic staircase
        r = radical(delta)
        for k in range(1, lp_order + 1):
            x = r
            for _ in range(k - 1):
                x = ideal_multiply(x, r)
            order = construct_from_pic(delta, x)
            assert validate_strong_grading(order)[0]
            ok, detail = is_crossed_product(order)
            assert ok, (n, k, detail)


# ---------------------------------------------------------------------------
# 8. Engine-versus-oracle equivalence sweep


def _closure_valid_matrices(n):
    idx = [(i, j) for i in range(n) for j in range(n) if i != j]
    for vals in itertools.product(range(3), repeat=len(idx)):
        mat = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, vals):
            mat[i][j] = v
        ok = True
        for i in range(n):
            for k in range(n):
                ik = mat[i][k]
                rk, ri = mat[k], mat[i]
                for j in range(n):
                    if ik + rk[j] < ri[j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield tuple(tuple(row) for row in mat)


def _sweep_graded_corpus():
    """Generated gradings with flattened rank <= 64, over both residue
    characteristics, both Gaussian splitting types, and group rings."""
    orders = []
    for place in (M2, M3):
        for blocks in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]:
            delta = hereditary_staircase(blocks, ZZ, place)
            orders.append(construct_from_pic(delta, radical(delta)))
        base = LocalBase((hereditary_staircase((1, 1), ZZ, place),))
        for size in (2, 3):
            grp = cyclic_group(size)
            comps = {
                g: identity_component(base)
                for g in grp.elements
                if g != grp.identity
            }
            orders.append(graded_order(grp, base, comps))
        orders.append(
            trivial_crossed(hereditary_staircase((1, 1), ZZ, place),
                            symmetric_group(2), 2)
        )
    (m3i,) = maximal_ideals_above(ZI, 3)
    (m2i,) = maximal_ideals_above(ZI, 2)
    for mi in (P5, m3i, m2i):
        delta = hereditary_staircase((1, 1), ZI, mi)
        orders.append(construct_from_pic(delta, radical(delta)))
    return orders


def test_criterion_8_oracle_sweep():
    t0 = time.monotonic()
    g1 = cyclic_group(1)
    checked = 0
    for n in (1, 2, 3, 4):
        for mat in _closure_valid_matrices(n):
            exp = ExponentMatrix(n, mat, ZZ, M2)
            a = flatten(graded_order(g1, LocalBase((exp,)), {}), M2)
            assert hereditary_oracle(a) == is_hereditary_local(exp), mat
            checked += 1
    assert checked == 1 + 9 + 281 + 29027
    corpus = _sweep_graded_corpus()
    assert len(corpus) >= 20
    for order in corpus:
        for m in order.places():
            rank = flatten(order, m).rank
            assert rank <= 64
            r = oracle_report(order, m)
            assert r["agree"], (r, order.group)
    assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 9. Verdicts do not depend on the Sylow subgroup chosen


def test_criterion_9_sylow_invariance(gaussian_order):
    fixtures = [
        gaussian_order,
        parse_graded(load_fixture("nonbasic")),
        parse_graded(load_fixture("semiprime")),
        trivial_crossed(hereditary_staircase((1, 1), ZZ, M2), symmetric_group(4), 4),
    ]
    for order in fixtures:
        assert order.group.order <= 24
        reference = main_hereditary_verdict(order).hereditary
        for p in {2, 3, 5} & {q for q in (2, 3, 5) if order.group.order % q == 0}:
            for syl in all_sylow_subgroups(order.group, p):
                v = main_hereditary_verdict(order, sylow_choice={p: syl})
                assert v.hereditary == reference, (p, syl.generators)
