import pytest

from gradedorders.base_rings import ZZ, maximal_ideals_above
from gradedorders.graded import (
    CrossedProductDatum,
    LocalBase,
    Monomial,
    construct_crossed_product,
    inner_classification,
    validate_strong_grading,
)
from gradedorders.groups import cyclic_group, symmetric_group, sylow_subgroup
from gradedorders.semiprime import (
    idempotent_action,
    main_hereditary_verdict,
    orbit_decompose,
)
from gradedorders.tiled import hereditary_staircase
from gradedorders.base_rings import KElem

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]
ONE = KElem.of(1, 0)


def permuted_sum(d, place=M2, blocks=(1, 1), group=None):
    """d copies of a basic staircase with the full symmetric group (or a
    supplied subgroup of it) permuting the summands, trivial twisting."""
    delta = hereditary_staircase(blocks, ZZ, place)
    group = group or symmetric_group(d)
    base = LocalBase(tuple(delta for _ in range(d)))
    idm = Monomial(tuple(range(delta.n)), tuple(ONE for _ in range(delta.n)))
    action = {g: (g, tuple(idm for _ in range(d))) for g in group.elements}
    return construct_crossed_product(base, group, CrossedProductDatum(action))


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
        assert corners[0].data.stabilizer.order == 2

    def test_intransitive_action(self):
        from gradedorders.groups import FiniteGroup, perm_from_cycles

        g = FiniteGroup(3, (perm_from_cycles("(1 2)", 3),))
        order = permuted_sum(3, group=g)
        corners = orbit_decompose(order)
        assert [sorted(c.data.orbit) for c in corners] == [[0, 1], [2]]

    def test_corner_is_stabilizer_group_ring(self):
        for d in (2, 3, 4):
            corners = orbit_decompose(permuted_sum(d))
            corner = corners[0].corner
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
            stab = corners[0].data.stabilizer
            p = 2
            syl = sylow_subgroup(stab, p)
            corner = corners[0].corner
            corner_inner = len(
                inner_classification(
                    corner, corner.group.subgroup(tuple(syl.elements))
                ).inner_elements
            )
            full_inner = len(
                inner_classification(
                    order, order.group.subgroup(tuple(syl.elements))
                ).inner_elements
            )
            assert corner_inner == syl.order
            assert full_inner == 1
            if syl.order > 1:
                assert full_inner < corner_inner

    def test_prime_case_delegates(self):
        order = permuted_sum(1, group=cyclic_group(1))
        v = main_hereditary_verdict(order)
        assert v.hereditary
