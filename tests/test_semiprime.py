import pytest

from sympy import primefactors

from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, maximal_ideals_above
from gradedorders.graded import (
    CrossedProductDatum,
    LocalBase,
    Monomial,
    block_corner_graded_order,
    coboundary_cocycle,
    construct_crossed_product,
    construct_from_pic,
    graded_order,
    identity_component,
    inner_elements,
    validate_strong_grading,
)
from gradedorders.groups import (
    FiniteGroup,
    all_sylow_subgroups,
    cyclic_group,
    perm_from_cycles,
    symmetric_group,
    sylow_subgroup,
)
from gradedorders.pic import PicClass, construct_class_representative
from gradedorders.semiprime import (
    idempotent_action,
    main_hereditary_verdict,
    orbit_decompose,
)
from gradedorders.tiled import (
    hereditary_staircase,
    is_hereditary_local,
    radical,
    validate_global_order,
    validate_order,
)
from gradedorders.base_rings import KElem

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]
P5, Q5 = maximal_ideals_above(ZI, 5)
ONE = KElem.of(1, 0)


def permuted_sum(d, place=M2, blocks=(1, 1), group=None, cocycle=None):
    """d copies of a basic staircase with the full symmetric group (or a
    supplied subgroup of it) permuting the summands, trivial twisting
    unless a cocycle is given."""
    delta = hereditary_staircase(blocks, ZZ, place)
    group = group or symmetric_group(d)
    base = LocalBase(tuple(delta for _ in range(d)))
    idm = Monomial(tuple(range(delta.n)), tuple(ONE for _ in range(delta.n)))
    action = {g: (g, tuple(idm for _ in range(d))) for g in group.elements}
    return construct_crossed_product(base, group, CrossedProductDatum(action, cocycle))


class TestDecomposition:
    def test_action_is_read_off_components(self):
        order = permuted_sum(3)
        act = idempotent_action(order)
        g = order.group.generators[0]
        for i in range(3):
            assert act.mapping(g, i) == g[i]

    def test_transitive_action_one_orbit(self):
        corners = orbit_decompose(permuted_sum(3))
        assert len(corners) == 1
        assert corners[0].stabilizer.order == 2

    def test_intransitive_action(self):
        g = FiniteGroup(3, (perm_from_cycles("(1 2)", 3),))
        order = permuted_sum(3, group=g)
        corners = orbit_decompose(order)
        assert [sorted(c.orbit) for c in corners] == [[0, 1], [2]]

    def test_corner_is_stabilizer_group_ring(self):
        for d in (2, 3, 4):
            order = permuted_sum(d)
            corners = orbit_decompose(order)
            corner = block_corner_graded_order(order, corners[0].representative, corners[0].stabilizer)
            assert corner.group.order == symmetric_group(d - 1).order
            assert validate_strong_grading(corner)[0]
            for h in corner.group.elements:
                assert corner.components[h].mats[0] == corner.base.blocks[0].entries


class TestVerdict:
    def test_not_hereditary_at_two(self):
        v = main_hereditary_verdict(permuted_sum(3))
        assert not v.hereditary and v.delta_hereditary
        witnesses = [e for e in v.breakdown if e.inner_witness is not None]
        assert witnesses and all(e.place.residue_char == 2 for e in witnesses)

    def test_hereditary_at_coprime_place(self):
        # |G| = 2 and the place sits over 3: group ring is hereditary
        v = main_hereditary_verdict(permuted_sum(2, place=M3))
        assert v.hereditary

    def test_hereditary_at_place_matches(self):
        order = permuted_sum(3)
        v = main_hereditary_verdict(order)
        assert main_hereditary_verdict(order.localize(M2)).hereditary == v.hereditary

    def test_corner_versus_full_inner_discrepancy(self):
        for d in (2, 3):
            order = permuted_sum(d)
            corners = orbit_decompose(order)
            stab = corners[0].stabilizer
            p = 2
            syl = sylow_subgroup(stab, p)
            corner = block_corner_graded_order(order, corners[0].representative, stab)
            corner_inner = len(inner_elements(corner, corner.group.subgroup(tuple(syl.elements))))
            full_inner = len(inner_elements(order, order.group.subgroup(tuple(syl.elements))))
            assert corner_inner == syl.order
            assert full_inner == 1
            if syl.order > 1:
                assert full_inner < corner_inner

    def test_prime_case_delegates(self):
        order = permuted_sum(1, group=cyclic_group(1))
        v = main_hereditary_verdict(order)
        assert v.hereditary


# ---------------------------------------------------------------------------
# The verdict against the prime-case test run on each orbit corner


def reference_verdict(order, sylow_choice=None):
    """(hereditary, delta_hereditary, breakdown) from corners that are
    built and checked: brute-force orbits and stabilizers of the blocks,
    the corner of each representative block at each place examined, and
    the inner elements of a Sylow subgroup of the stabilizer there."""
    group = order.group
    delta_ok = all(is_hereditary_local(b) for local in order.local_orders() for b in local.base.blocks)
    perm = {g: order.components[g].perm for g in group.elements}
    reps = [b for b in range(order.base.t) if all(perm[g][b] >= b for g in group.elements)]
    breakdown = []
    for k, rep in enumerate(reps):
        stab = FiniteGroup(group.degree, tuple(g for g in group.elements if perm[g][rep] == rep))
        for p in primefactors(stab.order):
            places = [
                m for m in maximal_ideals_above(order.base.ring, p)
                if not order.is_local or m == order.base.place
            ]
            syl = (sylow_choice or {}).get(p)
            if syl is None or not syl.element_set <= stab.element_set:
                syl = sylow_subgroup(stab, p)
            for m in places:
                corner = block_corner_graded_order(order.localize(m), rep, stab)
                inner = inner_elements(corner, corner.group.subgroup(syl.elements))
                witness = next((h for h in inner if h != group.identity), None)
                breakdown.append((k, p, m, syl.elements, witness))
    hereditary = delta_ok and all(e[-1] is None for e in breakdown)
    return hereditary, delta_ok, breakdown


def engine_verdict(order, sylow_choice=None):
    v = main_hereditary_verdict(order, sylow_choice)
    breakdown = [(e.orbit, e.prime, e.place, e.sylow.elements, e.inner_witness) for e in v.breakdown]
    return v.hereditary, v.delta_hereditary, breakdown


def c2_identity_grading(place):
    """C_2 grading a staircase by the identity bimodule: inner everywhere."""
    delta = hereditary_staircase((1, 1), ZZ, place)
    base = LocalBase((delta,))
    g = cyclic_group(2)
    return graded_order(g, base, {g.elements[1]: identity_component(base)})


def swapped_blocks_by_swap(place):
    """Delta1 + Delta2, Delta2 the conjugate of Delta1 by the swap, with S_2
    exchanging them through the swap monomial."""
    base = LocalBase(
        (validate_order(((0, 0), (1, 0)), ZZ, place), validate_order(((0, 1), (0, 0)), ZZ, place))
    )
    group = symmetric_group(2)
    e, s = group.elements
    idm = Monomial((0, 1), (ONE, ONE))
    swap = Monomial((1, 0), (ONE, ONE))
    return construct_crossed_product(base, group, CrossedProductDatum({e: (e, (idm, idm)), s: (s, (swap, swap))}))


def swap_and_radical(place):
    """A group of order 2 swapping two copies of the staircase and acting on
    a third by the monomial that generates its radical: the fixed block's
    corner is outer, while the swapped blocks carry identity monomials."""
    delta = hereditary_staircase((1, 1), ZZ, place)
    group = FiniteGroup(3, (perm_from_cycles("(1 2)", 3),))
    e, s = group.elements
    idm = Monomial((0, 1), (ONE, ONE))
    rad = Monomial((1, 0), (ONE, place.generator))
    action = {e: (e, (idm, idm, idm)), s: (s, (idm, idm, rad))}
    return construct_crossed_product(LocalBase((delta,) * 3), group, CrossedProductDatum(action))


def gaussian_outer(n):
    """The n x n Gaussian staircase at both places over 5, graded by the
    Picard class of (2+1i): a global prime order."""
    st = hereditary_staircase((1,) * n)
    rows = [
        [FractionalIdealR.from_factors(ZI, {P5: st.entries[i][j], Q5: st.entries[i][j]}) for j in range(n)]
        for i in range(n)
    ]
    delta = validate_global_order(ZI, rows)
    return construct_from_pic(delta, construct_class_representative(delta, PicClass.of({Q5: 1})))


def rational_class_grading(q):
    """Over Z, [[(1), (1)], [(q), (1)]] graded by the class of its radical at (q)."""
    one, gen = FractionalIdealR.one(ZZ), FractionalIdealR.principal(ZZ, q)
    delta = validate_global_order(ZZ, [[one, one], [gen, one]])
    (m,) = maximal_ideals_above(ZZ, q)
    return construct_from_pic(delta, construct_class_representative(delta, PicClass.of({m: 1})))


def coboundary(group):
    """A coboundary with unit values mu in {1, -1}, not the trivial one."""
    return coboundary_cocycle(group, {g: KElem.of((-1) ** (i % 3 == 1), 0) for i, g in enumerate(group.elements)})


REFERENCE_CASES = {
    **{
        f"S{d}-{m}-{twist}": (lambda d=d, m=m, twist=twist: permuted_sum(
            d, place=m, cocycle=coboundary(symmetric_group(d)) if twist == "coboundary" else None
        ))
        for d in (3, 4)
        for m in (M2, M3)
        for twist in ("trivial", "coboundary")
    },
    **{
        f"intransitive-{m}": (lambda m=m: permuted_sum(3, place=m, group=FiniteGroup(3, (perm_from_cycles("(1 2)", 3),))))
        for m in (M2, M3)
    },
    **{f"swapped-blocks-{m}": (lambda m=m: swapped_blocks_by_swap(m)) for m in (M2, M3)},
    **{f"swap-and-radical-{m}": (lambda m=m: swap_and_radical(m)) for m in (M2, M3)},
    **{
        f"pic-{blocks}-{m}": (lambda blocks=blocks, m=m: construct_from_pic(
            hereditary_staircase(blocks, ZZ, m), radical(hereditary_staircase(blocks, ZZ, m))
        ))
        for blocks in ((1, 1), (2, 1), (1, 1, 1))
        for m in (M2, M3)
    },
    **{f"c2-identity-{m}": (lambda m=m: c2_identity_grading(m)) for m in (M2, M3)},
    "gaussian-outer-3": lambda: gaussian_outer(3),
    "rational-class-3": lambda: rational_class_grading(3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_verdict_matches_corner_reference(name):
    order = REFERENCE_CASES[name]()
    assert engine_verdict(order) == reference_verdict(order)
    for p in primefactors(order.group.order):
        for syl in all_sylow_subgroups(order.group, p):
            assert engine_verdict(order, {p: syl}) == reference_verdict(order, {p: syl}), (p, syl.elements)
