import random
import re
import warnings

import pytest

from gradedorders.base_rings import (
    ZZ,
    ZI,
    FractionalIdealR,
    KElem,
    RingError,
    kelem_valuation,
    maximal_ideals_above,
)
from gradedorders.graded import (
    ActionDoesNotNormalize,
    CocycleViolation,
    CrossedProductDatum,
    GradedError,
    GradedOrder,
    LocalBase,
    LocalComponent,
    Monomial,
    NonMinimalOrder,
    StrongGradingFailure,
    block_corner_graded_order,
    coboundary_cocycle,
    component_is_inner,
    construct_crossed_product,
    construct_from_pic,
    corner_graded_order,
    graded_order,
    identity_component,
    inner_classification,
    is_crossed_product,
    validate_strong_grading,
)
from gradedorders.groups import (
    cyclic_group,
    pinv,
    pmul,
    symmetric_group,
)
from gradedorders.oracle import oracle_report
from gradedorders.pic import PicClass, construct_class_representative
from gradedorders.semiprime import main_hereditary_verdict
from gradedorders.tiled import (
    ExponentMatrix,
    hereditary_staircase,
    localize,
    radical,
    validate_global_order,
    validate_order,
)

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]
P5, Q5 = maximal_ideals_above(ZI, 5)
ONE = KElem.of(1, 0)


def rad_grading(blocks, place=M2):
    delta = hereditary_staircase(blocks, ZZ, place)
    return construct_from_pic(delta, radical(delta))


def identity_monomial(n):
    return Monomial(tuple(range(n)), tuple(ONE for _ in range(n)))


def trivial_crossed(delta, group, copies=None, cocycle=None):
    copies = group.degree if copies is None else copies
    base = LocalBase(tuple(delta for _ in range(copies)))
    idm = identity_monomial(delta.n)
    action = {g: (g, tuple(idm for _ in range(copies))) for g in group.elements}
    return construct_crossed_product(
        base, group, CrossedProductDatum(action, cocycle)
    )


def gaussian_staircase(n):
    st = hereditary_staircase((1,) * n)
    rows = [
        [
            FractionalIdealR.from_factors(
                ZI, {P5: st.entries[i][j], Q5: st.entries[i][j]}
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return validate_global_order(ZI, rows)


class TestPicConstruction:
    def test_cyclic_order_matches_picent(self):
        for blocks, expect in [((1, 1), 2), ((2, 1), 2), ((1, 1, 1), 3)]:
            order = rad_grading(blocks)
            assert order.group.order == expect
            ok, witness = validate_strong_grading(order)
            assert ok, witness

    def test_nonminimal_warning(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        with pytest.warns(NonMinimalOrder):
            order = construct_from_pic(delta, radical(delta), n=4)
        assert order.group.order == 4
        assert validate_strong_grading(order)[0]

    def test_global_construction(self):
        delta = gaussian_staircase(5)
        x = construct_class_representative(delta, PicClass.of({Q5: 1}))
        order = construct_from_pic(delta, x)
        assert order.group.order == 5
        assert validate_strong_grading(order)[0]

    def test_trivial_class_gives_trivial_group(self):
        delta = gaussian_staircase(3)
        x = construct_class_representative(delta, PicClass.of({}))
        order = construct_from_pic(delta, x)
        assert order.group.order == 1


class TestStrongGrading:
    def test_tampered_component_fails(self):
        order = rad_grading((1, 1))
        g = next(h for h in order.group.elements if h != order.group.identity)
        comp = order.components[g]
        bad = tuple(
            tuple(tuple(x + 1 for x in row) for row in mat) for mat in comp.mats
        )
        order.components[g] = LocalComponent(comp.perm, bad)
        ok, witness = validate_strong_grading(order)
        assert not ok and witness is not None

    def test_missing_component_fails(self):
        order = rad_grading((1, 1))
        g = next(h for h in order.group.elements if h != order.group.identity)
        del order.components[g]
        with pytest.raises(GradedError):
            validate_strong_grading(order)

    def test_identity_component_is_delta(self):
        delta = hereditary_staircase((2, 1), ZZ, M2)
        base = LocalBase((delta,))
        comp = identity_component(base)
        assert comp.mats[0] == delta.entries


class TestCrossedProducts:
    def test_group_ring(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        order = trivial_crossed(delta, symmetric_group(3))
        assert validate_strong_grading(order)[0]
        assert set(order.components) == set(order.group.elements)

    def test_cocycle_violation_detected(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        g3 = cyclic_group(3)
        bad = {(g, h): ONE for g in g3.elements for h in g3.elements}
        gen = g3.generators[0]
        bad[(gen, gen)] = KElem.of(2, 0)
        bad[(gen, g3.identity)] = KElem.of(3, 0)  # breaks normalization
        with pytest.raises(CocycleViolation):
            trivial_crossed(delta, g3, copies=3, cocycle=bad)

    def test_coboundary_is_cocycle(self):
        g3 = cyclic_group(3)
        mu = {g: KElem.of(2, 0) ** i for i, g in enumerate(g3.elements)}
        tau = coboundary_cocycle(g3, mu)
        for g in g3.elements:
            for h in g3.elements:
                for k in g3.elements:
                    lhs = tau[(g, h)] * tau[(pmul(g, h), k)]
                    rhs = tau[(h, k)] * tau[(g, pmul(h, k))]
                    assert lhs == rhs

    def test_twisted_group_ring(self):
        delta = hereditary_staircase((1, 1), ZZ, M3)
        g2 = cyclic_group(2)
        mu = {g2.elements[1]: KElem.of(2, 0)}  # a unit at the place over 3
        tau = coboundary_cocycle(g2, mu)
        order = trivial_crossed(delta, g2, copies=2, cocycle=tau)
        assert validate_strong_grading(order)[0]

    def test_recognizer_on_rad_gradings(self):
        # rad-powers over a basic staircase always give a crossed product
        order = rad_grading((1, 1, 1))
        ok, detail = is_crossed_product(order)
        assert ok, detail

    def test_recognizer_rejects_nonbasic(self):
        order = rad_grading((2, 1))
        ok, detail = is_crossed_product(order)
        assert not ok
        assert any(not v for v in detail.values())

    def test_corner_recovers_crossed_product(self):
        order = rad_grading((2, 1))
        corner = corner_graded_order(order, (0, 2))
        assert validate_strong_grading(corner)[0]
        ok, _ = is_crossed_product(corner)
        assert ok


def cocycle_failures(group, tau):
    """Every triple of grades at which tau breaks the cocycle identity, in
    the order of the group's elements."""
    els = group.elements
    return [
        (g, h, k)
        for g in els
        for h in els
        for k in els
        if tau[(g, h)] * tau[(pmul(g, h), k)] != tau[(h, k)] * tau[(g, pmul(h, k))]
    ]


class TestCocycleCheck:
    def test_violation_at_a_late_triple(self):
        # tau = -1 on the rows of a subgroup A of order 2 and 1 elsewhere
        # holds at every triple (g, h, k) with g in A, and the first two
        # grades are A, so the first failure lies past a third of the triples
        s3 = symmetric_group(3)
        els = s3.elements
        rows = set(els[:2])
        assert {pmul(a, b) for a in rows for b in rows} == rows
        tau = {(g, h): -ONE if g in rows else ONE for g in els for h in els}
        failures = cocycle_failures(s3, tau)
        assert failures and failures[0][0] == els[2]
        delta = hereditary_staircase((1, 1), ZZ, M2)
        with pytest.raises(CocycleViolation) as info:
            trivial_crossed(delta, s3, cocycle=tau)
        assert info.value.triple == failures[0]

    def test_none_equals_all_ones(self):
        delta = hereditary_staircase((1, 1), ZZ, M3)
        s3 = symmetric_group(3)
        ones = {(g, h): ONE for g in s3.elements for h in s3.elements}
        plain = trivial_crossed(delta, s3)
        explicit = trivial_crossed(delta, s3, cocycle=ones)
        assert plain.gamma == explicit.gamma
        assert plain.components == explicit.components

    def test_seeded_sign_coboundary_over_s4(self):
        s4 = symmetric_group(4)
        rng = random.Random(20001)
        mu = {g: KElem.of(rng.choice((1, -1)), 0) for g in s4.elements}
        tau = coboundary_cocycle(s4, mu)
        assert cocycle_failures(s4, tau) == []
        assert any(v != ONE for v in tau.values())
        order = trivial_crossed(hereditary_staircase((1, 1), ZZ, M2), s4, cocycle=tau)
        assert validate_strong_grading(order)[0]


class TestInnerClassification:
    def test_rad_grading_is_outer(self):
        order = rad_grading((1, 1))
        full = order.group.subgroup(tuple(order.group.elements))
        ic = inner_classification(order, full)
        assert ic.is_outer

    def test_global_versus_local(self):
        delta = gaussian_staircase(5)
        x = construct_class_representative(delta, PicClass.of({Q5: 1}))
        order = construct_from_pic(delta, x)
        full = order.group.subgroup(tuple(order.group.elements))
        assert inner_classification(order, full).is_outer
        assert len(inner_classification(order.localize(P5), full).inner_elements) == 5
        assert len(inner_classification(order.localize(Q5), full).inner_elements) == 1

    def test_identity_always_inner(self):
        order = rad_grading((2, 1))
        assert component_is_inner(order, order.group.identity)

    def test_conjugation_identity(self):
        rng = random.Random(11)
        delta = hereditary_staircase((1, 1), ZZ, M2)
        group = symmetric_group(3)
        order = trivial_crossed(delta, group)
        for _ in range(25):
            h = rng.choice(group.elements)
            sub = group.subgroup((h,))
            g = rng.choice(group.elements)
            conj = group.subgroup(
                tuple(pmul(pmul(pinv(g), x), g) for x in sub.generators)
            )
            lhs = set(inner_classification(order, conj).inner_elements)
            rhs = {
                pmul(pmul(pinv(g), x), g)
                for x in inner_classification(order, sub).inner_elements
            }
            assert lhs == rhs


class TestVerdict:
    def test_hereditary_rad_grading(self):
        # grading by the full Picent: outer, and delta hereditary
        order = rad_grading((1, 1))
        v = main_hereditary_verdict(order)
        assert v.hereditary and v.delta_hereditary

    def test_group_ring_at_bad_characteristic(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        order = trivial_crossed(delta, cyclic_group(1), copies=1)
        # C2 grading with the identity bimodule is inner everywhere
        g2 = cyclic_group(2)
        base = LocalBase((delta,))
        comps = {g2.elements[1]: identity_component(base)}
        inner_order = graded_order(g2, base, comps)
        v = main_hereditary_verdict(inner_order)
        assert not v.hereditary
        assert v.breakdown[0].inner_witness is not None

    def test_good_characteristic_group_ring(self):
        # |G| = 2 invertible at the place over 3: always hereditary
        delta = hereditary_staircase((1, 1), ZZ, M3)
        g2 = cyclic_group(2)
        base = LocalBase((delta,))
        comps = {g2.elements[1]: identity_component(base)}
        order = graded_order(g2, base, comps)
        v = main_hereditary_verdict(order)
        assert v.hereditary

    def test_sylow_choice_invariance(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        order = trivial_crossed(delta, symmetric_group(3))
        from gradedorders.groups import all_sylow_subgroups
        from gradedorders.semiprime import main_hereditary_verdict

        verdicts = set()
        for p in (2, 3):
            for syl in all_sylow_subgroups(order.group, p):
                v = main_hereditary_verdict(order, sylow_choice={p: syl})
                verdicts.add(v.hereditary)
        assert len(verdicts) == 1


class TestCorners:
    def test_block_corner_needs_stabilizer(self):
        from gradedorders.graded import InvalidIdempotent

        delta = hereditary_staircase((1, 1), ZZ, M2)
        order = trivial_crossed(delta, symmetric_group(3))
        moving = order.group.subgroup(tuple(order.group.generators))
        with pytest.raises(InvalidIdempotent):
            block_corner_graded_order(order, 0, moving)

    def test_corner_of_prime_base(self):
        order = rad_grading((2, 1))
        corner = corner_graded_order(order, (0, 2))
        assert corner.base.blocks[0].n == 2
        assert corner.group.order == order.group.order


class TestStrongGradingFailure:
    def test_tampered_component_names_its_pair(self):
        order = rad_grading((1, 1))
        g = order.group.generators[0]
        # the identity bimodule in place of the radical: g * g wraps by 1/2
        # and no longer lands on the identity component
        comps = {g: identity_component(order.base)}
        with pytest.raises(StrongGradingFailure) as exc:
            graded_order(order.group, order.base, comps, order.gamma)
        assert exc.value.pair == (g, g)

    @pytest.mark.parametrize("scalars", [(), (ONE, KElem.of(7, 0))], ids=["empty", "two"])
    def test_gamma_needs_one_scalar_per_block(self, scalars):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        base = LocalBase((delta,))
        g2 = cyclic_group(2)
        s = g2.elements[1]
        comps = {s: identity_component(base)}
        with pytest.raises(GradedError, match=f"^a gamma value has {len(scalars)} scalars, expected 1$"):
            graded_order(g2, base, comps, {(s, s): scalars})

    def test_component_needs_one_matrix_per_block(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        base = LocalBase((delta,))
        g2 = cyclic_group(2)
        with pytest.raises(GradedError, match="^a component has 0 blocks, expected 1$"):
            graded_order(g2, base, {g2.elements[1]: LocalComponent((0,), ())})


def swapped_blocks(place):
    """Delta1 + Delta2 with Delta2 the conjugate of Delta1 by the swap."""
    return LocalBase(
        (
            validate_order(((0, 0), (1, 0)), ZZ, place),
            validate_order(((0, 1), (0, 0)), ZZ, place),
        )
    )


def block_swap(mono):
    """S_2 swapping the two blocks, by mono inside each block."""
    group = symmetric_group(2)
    e, s = group.elements
    idm = identity_monomial(2)
    return group, CrossedProductDatum({e: (e, (idm, idm)), s: (s, (mono, mono))})


def rotation(scalar):
    """C_2 acting on one 2x2 block by [[0, 1], [scalar, 0]]."""
    group = cyclic_group(2)
    e, g = group.elements
    rot = Monomial((1, 0), (ONE, KElem.of(scalar, 0)))
    return group, CrossedProductDatum({e: ((0,), (identity_monomial(2),)), g: ((0,), (rot,))})


class TestCrossedProductMonomials:
    def test_block_swap_needs_the_swap_monomial(self):
        group, datum = block_swap(identity_monomial(2))
        with pytest.raises(ActionDoesNotNormalize, match=re.escape("failure at ((1, 0), (0, 1))")):
            construct_crossed_product(swapped_blocks(M2), group, datum)

    @pytest.mark.parametrize("place", [M2, M3], ids=str)
    def test_block_swap_by_swap_monomial(self, place):
        group, datum = block_swap(Monomial((1, 0), (ONE, ONE)))
        order = construct_crossed_product(swapped_blocks(place), group, datum)
        assert main_hereditary_verdict(order).hereditary
        assert oracle_report(order, place)["agree"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_rotation_wraps_by_one_over_p(self, p):
        place = maximal_ideals_above(ZZ, p)[0]
        group, datum = rotation(p)
        base = LocalBase((hereditary_staircase((1, 1), ZZ, place),))
        order = construct_crossed_product(base, group, datum)
        g = group.elements[1]
        assert order.gamma_at(g, g) == (ONE / KElem.of(p, 0),)
        # delta * w_g is the radical of delta
        assert order.components[g].mats == (radical(base.blocks[0]).entries,)
        assert oracle_report(order, place)["agree"]

    def test_placeless_base_is_refused(self):
        group, datum = rotation(2)
        delta = ExponentMatrix(2, ((0, 0), (1, 0)), ZZ)
        with pytest.raises(GradedError, match="share one place"):
            construct_crossed_product(LocalBase((delta,)), group, datum)
        with pytest.raises(GradedError, match="share one place"):
            graded_order(cyclic_group(1), LocalBase((delta,)), {})
        with pytest.raises(GradedError, match="share one place"):
            construct_from_pic(delta, radical(delta))


class TestOnePlace:
    def test_same_order_by_two_routes(self):
        one, two = FractionalIdealR.one(ZZ), FractionalIdealR.principal(ZZ, 2)
        delta = localize(validate_global_order(ZZ, [[one, one], [two, one]]), M2)
        staircase = hereditary_staircase((1, 1), ZZ, M2)
        assert delta == staircase
        order = construct_from_pic(delta, radical(staircase))
        assert order.group.order == 2

    def test_blocks_at_two_places_are_refused(self):
        base = LocalBase(tuple(hereditary_staircase((1, 1), ZZ, m) for m in (M2, M3)))
        with pytest.raises(GradedError, match="share one place"):
            graded_order(cyclic_group(1), base, {})
        group, datum = block_swap(identity_monomial(2))
        with pytest.raises(GradedError, match="share one place"):
            construct_crossed_product(base, group, datum)

    def test_foreign_place_is_refused(self):
        one, six = FractionalIdealR.one(ZZ), FractionalIdealR.principal(ZZ, 6)
        delta = validate_global_order(ZZ, [[one, one], [six, one]])
        order = construct_from_pic(delta, construct_class_representative(delta, PicClass.of({M2: 1})))
        for m in (P5, maximal_ideals_above(ZI, 3)[0]):
            with pytest.raises(RingError):
                order.localize(m)


# ---------------------------------------------------------------------------
# Crossed products checked on generators against the checks on every pair


def flat_rows(w, sizes):
    """Row r of the block-monomial matrix w = (block_perm, monomials) as its
    one (column, scalar) pair, in the indices of the whole matrix."""
    bperm, monos = w
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    return [
        (offsets[bperm[i]] + c, x)
        for i, mono in enumerate(monos)
        for c, x in zip(mono.perm, mono.scalars)
    ]


def block_scalar_quotient(a, b, ab, sizes):
    """The per-block scalars beta with a * b == beta * ab, for flat rows,
    or None."""
    prod = [(b[c][0], x * b[c][1]) for c, x in a]
    if [c for c, _ in prod] != [c for c, _ in ab]:
        return None
    ratios = [x / y for (_, x), (_, y) in zip(prod, ab)]
    blocks = [ratios[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(len(sizes))]
    if any(r != block[0] for block in blocks for r in block):
        return None
    return tuple(block[0] for block in blocks)


def naive_crossed_product(base, group, datum):
    """The crossed product by the checks on every pair of grades, written
    out on whole matrices: w_g w_h == beta(g,h) w_gh at every pair, then
    the full validate_strong_grading.  Where they reject the datum, raises
    ActionDoesNotNormalize naming the first failing pair in element order."""
    els = group.elements
    sizes = [blk.n for blk in base.blocks]
    rows = {g: flat_rows(datum.action[g], sizes) for g in els}
    gamma = {}
    for g in els:
        for h in els:
            beta = block_scalar_quotient(rows[g], rows[h], rows[pmul(g, h)], sizes)
            if beta is None:
                raise ActionDoesNotNormalize("action is not a homomorphism up to central scalars")
            gamma[(g, h)] = tuple(datum.tau(g, h) / b for b in beta)
    comps = {}
    for g in els:
        bperm, monos = datum.action[g]
        mats = []
        for blk, mono in zip(base.blocks, monos):
            # (delta w)[a][c] = delta[a][k] w[k][c], w[k][c] = x at c = perm[k]
            mat = [[None] * blk.n for _ in range(blk.n)]
            for k, (c, x) in enumerate(zip(mono.perm, mono.scalars)):
                v = kelem_valuation(blk.ring, x, blk.place)
                for a in range(blk.n):
                    mat[a][c] = blk.entries[a][k] + v
            mats.append(tuple(map(tuple, mat)))
        comps[g] = LocalComponent(tuple(bperm), tuple(mats))
    order = GradedOrder(group, base, comps, gamma)
    ok, witness = validate_strong_grading(order)
    if not ok:
        raise ActionDoesNotNormalize(f"action does not normalize the order: failure at {witness[:2]}")
    return order


def naive_accepts(base, group, datum):
    try:
        naive_crossed_product(base, group, datum)
    except ActionDoesNotNormalize:
        return False
    return True


def sign(g):
    """0 for an even permutation, 1 for an odd one."""
    return sum(1 for i in range(len(g)) for j in range(i) if g[j] > g[i]) % 2


SWAP = Monomial((1, 0), (ONE, ONE))


def sign_action(group, odd):
    """S_n permuting n blocks, by the monomial odd inside each block at odd
    elements and by the identity at even ones."""
    idm = identity_monomial(2)
    return {g: (g, (odd if sign(g) else idm,) * group.degree) for g in group.elements}


def non_generator(group):
    return next(g for g in reversed(group.elements) if g not in group.generators)


def crossed_cases():
    """(id, base, group, datum) over S_3 and S_4 at (2) and (3) and at the
    Gaussian places over 2 and 3, then the two-block swap and the rotation
    at (2) and (3)."""
    rng = random.Random(8)
    cases = []
    places = [(str(m), ZZ, m) for m in (M2, M3)]
    places += [(f"ZI{m}", ZI, maximal_ideals_above(ZI, p)[0]) for p, m in ((2, M2), (3, M3))]
    gauss = [KElem.of(0, 1), KElem.of(1, 2), KElem.of(2, 1), KElem.of(1, 1), KElem.of(-1, 0)]
    for n in (3, 4):
        group = symmetric_group(n)
        els = group.elements
        for label, ring, m in places:
            base = LocalBase((hereditary_staircase((1, 1), ring, m),) * n)
            plain = sign_action(group, identity_monomial(2))

            def add(name, action, mu=None):
                cocycle = None if mu is None else coboundary_cocycle(group, mu)
                datum = CrossedProductDatum(action, cocycle)
                cases.append((f"S{n}@{label}-{name}", base, group, datum))

            if ring == ZI:
                add("gauss", plain, {g: rng.choice(gauss) for g in els})
                add("gauss-units", plain, {g: rng.choice((gauss[0], gauss[4])) for g in els})
                continue
            add("trivial", plain)
            add("coboundary", plain, {g: KElem.of(rng.choice((1, -1)), 0) for g in els})
            add("valued", plain, {g: KElem.of(rng.choice((1, 2, 3, -5)), 0) for g in els})
            add("swap", sign_action(group, SWAP))
            for p in (2, 3):
                add(f"rotation{p}", sign_action(group, Monomial((1, 0), (ONE, KElem.of(p, 0)))))
            g = non_generator(group)
            for name, mono in (
                ("wrong-w", Monomial((0, 1), (ONE, KElem.of(2, 0)))),
                ("rescaled-w", Monomial((0, 1), (KElem.of(2, 0),) * 2)),
            ):
                add(name, {**plain, g: (g, (mono,) + plain[g][1][1:])})
            add("wrong-perm", {**plain, g: (pmul(g, group.generators[0]), plain[g][1])})
    for m in (M2, M3):
        for name, mono in (("identity", identity_monomial(2)), ("swap", SWAP)):
            group, datum = block_swap(mono)
            cases.append((f"block-swap-{name}@{m}", swapped_blocks(m), group, datum))
        for p in (2, 3):
            group, datum = rotation(p)
            base = LocalBase((hereditary_staircase((1, 1), ZZ, m),))
            cases.append((f"rotation{p}@{m}", base, group, datum))
        # the trivial group has no generators: only the pair (e, e) sees
        # the wrap by tau(e, e) = 2, a unit at (3) only
        group = cyclic_group(1)
        e = group.identity
        datum = CrossedProductDatum({e: ((0,), (identity_monomial(2),))}, {(e, e): KElem.of(2, 0)})
        cases.append((f"trivial-group@{m}", base, group, datum))
    return cases


CROSSED_CASES = crossed_cases()


class TestGeneratorChecks:
    @pytest.mark.parametrize(
        "base, group, datum", [c[1:] for c in CROSSED_CASES], ids=[c[0] for c in CROSSED_CASES]
    )
    def test_agrees_with_the_checks_on_every_pair(self, base, group, datum):
        try:
            expected = naive_crossed_product(base, group, datum)
        except ActionDoesNotNormalize as naive:
            with pytest.raises(ActionDoesNotNormalize) as err:
                construct_crossed_product(base, group, datum)
            assert str(err.value) == str(naive)
            return
        order = construct_crossed_product(base, group, datum)
        assert validate_strong_grading(order)[0]
        assert order.components == expected.components
        els = group.elements
        assert all(order.gamma_at(g, h) == expected.gamma_at(g, h) for g in els for h in els)
        assert all(any(c != ONE for c in vals) for vals in order.gamma.values())

    def test_cases_reach_both_outcomes(self):
        # the equivalence above is tested in both directions: each tampered
        # family is rejected, each sound one accepted, and a rotation by p
        # normalizes the staircase only at the place over p
        outcomes = {}
        for name, base, group, datum in CROSSED_CASES:
            family = name.split("-", 1)[1] if name.startswith("S") else name.split("@")[0]
            accepted = naive_accepts(base, group, datum)
            outcomes.setdefault(family, set()).add(accepted)
        for family in ("trivial", "coboundary", "rescaled-w", "gauss-units"):
            assert outcomes[family] == {True}, family
        for family in ("swap", "wrong-w", "wrong-perm", "valued"):
            assert outcomes[family] == {False}, family
        assert outcomes["block-swap-identity"] == {False}
        for family in ("rotation2", "rotation3", "gauss", "trivial-group"):
            assert outcomes[family] == {True, False}, family

    def test_zero_scalar_is_refused_before_the_checks(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        c2 = cyclic_group(2)
        g = next(x for x in c2.elements if x != c2.identity)
        action = {
            c2.identity: ((0,), (identity_monomial(2),)),
            g: ((0,), (Monomial((1, 0), (KElem.of(0), ONE)),)),
        }
        with pytest.raises(RingError, match="valuation of zero"):
            construct_crossed_product(LocalBase((delta,)), c2, CrossedProductDatum(action))

    def test_coboundary_equals_the_naive_product(self):
        s4 = symmetric_group(4)
        rng = random.Random(4)
        values = [ONE, -ONE, KElem.of(2, 3), KElem.of(1, 1), KElem.of(0, 1)]
        for mu in (
            {g: rng.choice(values) for g in s4.elements},
            {g: KElem.of(i + 1, 2) for i, g in enumerate(s4.elements)},
            {},
        ):
            naive = {
                (g, h): mu.get(g, ONE) * mu.get(h, ONE) * mu.get(pmul(g, h), ONE).inverse()
                for g in s4.elements
                for h in s4.elements
            }
            assert coboundary_cocycle(s4, mu) == naive

    def test_s6_verdict(self):
        delta = hereditary_staircase((1, 1), ZZ, M2)
        order = trivial_crossed(delta, symmetric_group(6))
        assert order.gamma == {}
        v = main_hereditary_verdict(order)
        assert (v.hereditary, v.delta_hereditary) == (False, True)
        breakdown = [(e.prime, str(e.place), e.inner_witness) for e in v.breakdown]
        assert breakdown == [(2, "(2)", (0, 1, 2, 3, 5, 4))]
