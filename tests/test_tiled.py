import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, RingError, maximal_ideals_above
from gradedorders.pic import PicClass, construct_class_representative
from gradedorders.tiled import (
    ClosureViolation,
    ExponentMatrix,
    NotHereditary,
    ZeroDiagonalViolation,
    constant_shift_of,
    dual_ideal,
    hereditary_staircase,
    ideal_multiply,
    ideal_power,
    is_free_left_module,
    is_hereditary_global,
    is_hereditary_local,
    localize,
    minplus,
    order_ideal,
    radical,
    validate_global_order,
    validate_order,
    zero_pair_classes,
)

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]


def staircase(*blocks):
    return hereditary_staircase(blocks, ZZ, M2)


def _square(n):
    return st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(_square(n), _square(n), _square(n))))
@settings(max_examples=150)
def test_minplus_associative(abc):
    a, b, c = abc
    assert minplus(minplus(a, b), c) == minplus(a, minplus(b, c))


class TestValidation:
    def test_zero_diagonal_required(self):
        with pytest.raises(ZeroDiagonalViolation):
            validate_order([[1, 0], [0, 0]], ZZ, M2)

    def test_closure(self):
        with pytest.raises(ClosureViolation):
            validate_order([[0, 0, 2], [0, 0, 0], [0, 0, 0]], ZZ, M2)

    def test_negative_entries_rejected_for_orders(self):
        with pytest.raises(Exception):
            validate_order([[0, -1], [2, 0]], ZZ, M2)

    def test_valid(self):
        e = validate_order([[0, 0], [1, 0]], ZZ, M2)
        assert isinstance(e, ExponentMatrix)


class TestRadical:
    def test_staircase_radical(self):
        e = staircase(1, 1)
        assert radical(e).entries == ((1, 0), (1, 1))

    def test_zero_pair_classes_blocks(self):
        assert zero_pair_classes(staircase(2, 1)) == [[0, 1], [2]]
        assert zero_pair_classes(staircase(1, 1, 1)) == [[0], [1], [2]]

    def test_maximal_order_radical(self):
        e = validate_order([[0, 0], [0, 0]], ZZ, M2)
        r = radical(e)
        assert r.entries == ((1, 0), (0, 1)) or all(
            r.entries[i][i] == 1 for i in range(2)
        )

    def test_radical_is_nilpotent_mod_m(self):
        e = staircase(2, 2, 1)
        r = radical(e)
        power = r
        for _ in range(e.n):
            power = ideal_multiply(power, r)
        # r^n lies inside m * Delta
        assert all(
            power.entries[i][j] >= e.entries[i][j] + 1
            for i in range(e.n)
            for j in range(e.n)
        )

    def test_radical_maximality(self):
        # the ideal generated by rad plus any strictly larger entry is no
        # longer nilpotent mod m*Delta: rad is the largest such ideal
        e = staircase(2, 1)
        r = radical(e)
        for i in range(e.n):
            for j in range(e.n):
                if r.entries[i][j] == e.entries[i][j]:
                    continue
                cand = [list(row) for row in r.entries]
                cand[i][j] -= 1
                ideal = minplus(minplus(e.entries, cand), e.entries)
                nil = False
                acc = ideal
                for _ in range(e.n + 1):
                    acc = minplus(acc, ideal)
                    if all(
                        acc[a][b] >= e.entries[a][b] + 1
                        for a in range(e.n)
                        for b in range(e.n)
                    ):
                        nil = True
                        break
                assert not nil, (i, j)


class TestHereditary:
    def test_staircases_hereditary(self):
        for blocks in [(1,), (1, 1), (2, 1), (2, 3), (1, 1, 1, 1, 1)]:
            assert is_hereditary_local(hereditary_staircase(blocks, ZZ, M2))

    def test_non_hereditary(self):
        e = validate_order([[0, 0], [2, 0]], ZZ, M2)
        assert not is_hereditary_local(e)

    def test_dual_inverts_radical(self):
        e = staircase(1, 2)
        r = radical(e)
        d = dual_ideal(r)
        assert ideal_multiply(r, d).entries == e.entries
        assert ideal_multiply(d, r).entries == e.entries

    def test_radical_powers_cycle(self):
        e = staircase(1, 1, 1)
        r = radical(e)
        p3 = ideal_power(r, 3)
        shifted = constant_shift_of(p3.entries, e.entries)
        assert shifted == 1  # rad^3 = m * Delta

    def test_ideal_power_matches_repeated_products(self):
        for e in (staircase(2, 1), validate_order([[0, 0, 0], [2, 0, 0], [2, 1, 0]], ZZ, M2)):
            r = radical(e)
            product = order_ideal(e)
            for k in range(12):
                assert ideal_power(r, k) == product
                product = ideal_multiply(product, r)
        # rad^3 = m * Delta, so rad^(3k+1) is rad shifted by k
        r = radical(staircase(1, 1, 1))
        assert constant_shift_of(ideal_power(r, 3 * 10**6 + 1).entries, r.entries) == 10**6


class TestProjectives:
    def test_radical_not_free_when_blocks_unequal(self):
        e = staircase(2, 1)
        assert not is_free_left_module(radical(e))
        assert is_free_left_module(order_ideal(e))

    def test_radical_free_when_blocks_equal(self):
        e = staircase(2, 2)
        assert is_free_left_module(radical(e))


class TestGlobal:
    def make_order(self):
        one = FractionalIdealR.one(ZZ)
        six = FractionalIdealR.principal(ZZ, 6)
        return validate_global_order(ZZ, [[one, one], [six, one]])

    def test_support(self):
        order = self.make_order()
        assert [m.residue_char for m in order.support] == [2, 3]

    def test_localize(self):
        order = self.make_order()
        local = localize(order, M2)
        assert local.entries == ((0, 0), (1, 0))
        # off the support the order is maximal
        (m5,) = maximal_ideals_above(ZZ, 5)
        assert localize(order, m5).entries == ((0, 0), (0, 0))

    def test_localize_refuses_a_foreign_place(self):
        order = self.make_order()
        # (1+i) lies over 2, in the support, and (3) of Z[i] over 3
        for m in (maximal_ideals_above(ZI, 2)[0], maximal_ideals_above(ZI, 3)[0]):
            with pytest.raises(RingError):
                localize(order, m)

    def test_hereditary_global(self):
        ok, failing = is_hereditary_global(self.make_order())
        assert ok and not failing

    def test_global_radical_style_ideal(self):
        order = self.make_order()
        # the trivial class is represented by the order itself, place by place
        ideal = construct_class_representative(order, PicClass.of({}))
        local = ideal[M2]
        assert local.entries == localize(order, M2).entries

    def test_not_hereditary_at_one_place(self):
        one = FractionalIdealR.one(ZZ)
        bad = FractionalIdealR.principal(ZZ, 12)
        order = validate_global_order(ZZ, [[one, one], [bad, one]])
        ok, failing = is_hereditary_global(order)
        assert not ok
        assert [m.residue_char for m in failing] == [2]
