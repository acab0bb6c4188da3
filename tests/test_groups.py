import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorders.groups import (
    ActionError,
    FiniteGroup,
    GroupAction,
    GroupError,
    all_sylow_subgroups,
    conjugate_subgroup,
    cyclic_group,
    group_from_json,
    group_to_json,
    identity_perm,
    normalizer,
    orbits_and_stabilizers,
    perm_from_cycles,
    perm_order,
    perm_to_cycles,
    permutation_action,
    pinv,
    pmul,
    sylow_subgroup,
    symmetric_group,
)

perms5 = st.permutations(tuple(range(5))).map(tuple)


@given(perms5, perms5, perms5)
@settings(max_examples=100)
def test_pmul_associative(a, b, c):
    assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))


@given(perms5)
def test_inverse(a):
    assert pmul(a, pinv(a)) == identity_perm(5)


@given(perms5)
def test_cycle_roundtrip(a):
    assert perm_from_cycles(perm_to_cycles(a), 5) == a


class TestGroups:
    def test_symmetric_order(self):
        assert symmetric_group(4).order == 24

    def test_cyclic(self):
        g = cyclic_group(6)
        (gen,) = g.generators
        assert perm_order(gen) == 6
        assert g.order == 6

    def test_trivial_group(self):
        assert cyclic_group(1).order == 1

    def test_subgroup_checks_its_generators(self):
        c3 = cyclic_group(3)
        assert c3.subgroup(c3.generators).elements == c3.elements
        with pytest.raises(GroupError):
            c3.subgroup([perm_from_cycles("(1 2)", 3)])

    def test_elements_closed(self):
        g = symmetric_group(3)
        els = set(g.elements)
        assert all(pmul(a, b) in els for a in els for b in els)

    def test_json_roundtrip(self):
        g = symmetric_group(3)
        h = group_from_json(group_to_json(g))
        assert set(h.elements) == set(g.elements)


class TestSylow:
    def test_s4_sylow_2(self):
        s4 = symmetric_group(4)
        p = sylow_subgroup(s4, 2)
        assert p.order == 8

    def test_s4_sylow_3(self):
        s4 = symmetric_group(4)
        assert sylow_subgroup(s4, 3).order == 3
        assert len(all_sylow_subgroups(s4, 3)) == 4

    def test_all_conjugate(self):
        s3 = symmetric_group(3)
        parts = all_sylow_subgroups(s3, 2)
        assert len(parts) == 3
        base = parts[0]
        conj = {
            frozenset(conjugate_subgroup(base, g).elements) for g in s3.elements
        }
        assert conj == {frozenset(p.elements) for p in parts}

    def test_trivial_sylow(self):
        s3 = symmetric_group(3)
        assert sylow_subgroup(s3, 5).order == 1

    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    def test_sylow_needs_a_prime(self, p):
        with pytest.raises(GroupError, match=f"^{p} is not prime$"):
            sylow_subgroup(symmetric_group(4), p)

    def test_normalizer(self):
        s3 = symmetric_group(3)
        p3 = sylow_subgroup(s3, 3)
        assert normalizer(s3, p3).order == 6  # A_3 is normal in S_3


class TestActions:
    def test_natural_action_orbits(self):
        g = symmetric_group(3)
        (orb,) = orbits_and_stabilizers(permutation_action(g))
        assert sorted(orb.orbit) == [0, 1, 2]
        assert orb.stabilizer.order == 2

    def test_stabilizer_fixes_representative(self):
        g = symmetric_group(4)
        for orb in orbits_and_stabilizers(permutation_action(g)):
            act = permutation_action(g)
            for h in orb.stabilizer.elements:
                assert act.mapping(h, orb.representative) == orb.representative

    def test_invalid_action_rejected(self):
        g = cyclic_group(2)
        bad = GroupAction(g, 2, lambda p, x: 0)  # not a bijection per element
        with pytest.raises(GroupError):
            bad.validate()

    @pytest.mark.parametrize("n", [3, 4])
    def test_action_wrong_at_one_non_generator_rejected(self, n):
        g = symmetric_group(n)
        bad = next(x for x in reversed(g.elements) if x not in g.generators)
        wrong = pmul(bad, perm_from_cycles("(1 2)", n))

        def mapping(x, point):
            return (wrong if x == bad else x)[point]

        GroupAction(g, n, lambda x, point: x[point]).validate()
        # the witness is the first failing triple over every pair, in
        # element order, which need not have a generator on the right
        x, y, point = next(
            (x, y, point)
            for x in g.elements
            for y in g.elements
            for point in range(n)
            if mapping(pmul(x, y), point) != mapping(y, mapping(x, point))
        )
        expected = (
            f"incompatible pair (g={perm_to_cycles(x)}, h={perm_to_cycles(y)}) at point {point}"
        )
        with pytest.raises(ActionError) as err:
            GroupAction(g, n, mapping).validate()
        assert str(err.value) == expected

    def test_intransitive(self):
        g = FiniteGroup(4, (perm_from_cycles("(1 2)", 4),))
        orbs = orbits_and_stabilizers(permutation_action(g))
        assert [sorted(o.orbit) for o in orbs] == [[0, 1], [2], [3]]


def _on_pairs(group):
    """The action of a permutation group on the ordered pairs of distinct
    points, numbered in lexicographic order: one orbit of size n(n-1)."""
    n = group.degree
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {pair: i for i, pair in enumerate(pairs)}
    return GroupAction(group, len(pairs), lambda g, i: index[(g[pairs[i][0]], g[pairs[i][1]])])


SCHREIER_CASES = [
    permutation_action(symmetric_group(4)),
    permutation_action(symmetric_group(5)),
    permutation_action(FiniteGroup(6, (perm_from_cycles("(1 2 3)", 6), perm_from_cycles("(4 5)", 6)))),
    permutation_action(FiniteGroup(4, (perm_from_cycles("(1 2)(3 4)", 4), perm_from_cycles("(1 3)(2 4)", 4)))),
    permutation_action(cyclic_group(1)),
    _on_pairs(symmetric_group(4)),
    _on_pairs(FiniteGroup(4, (perm_from_cycles("(1 2 3)", 4), perm_from_cycles("(2 3 4)", 4)))),
]


@pytest.mark.parametrize("action", SCHREIER_CASES, ids=range(len(SCHREIER_CASES)))
class TestSchreierStabilizers:
    def test_equal_brute_force(self, action):
        g = action.group
        orbits = orbits_and_stabilizers(action)
        assert [o.representative for o in orbits] == sorted(o.orbit[0] for o in orbits)
        covered = []
        for o in orbits:
            rep = o.representative
            assert o.orbit == tuple(sorted({action.mapping(x, rep) for x in g.elements}))
            brute = {x for x in g.elements if action.mapping(x, rep) == rep}
            assert o.stabilizer.element_set == brute
            covered += o.orbit
        assert sorted(covered) == list(range(action.set_size))

    def test_few_generators(self, action):
        # Schreier generators: at most one per orbit point and group generator
        for o in orbits_and_stabilizers(action):
            assert len(o.stabilizer.generators) <= len(o.orbit) * len(action.group.generators)
