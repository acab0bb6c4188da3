import pytest

from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, maximal_ideals_above
from gradedorders.pic import (
    NoMatchingPower,
    PicClass,
    PicError,
    construct_class_representative,
    pic_class_of,
    picent_global,
    picent_local,
)
from gradedorders.tiled import (
    NotHereditary,
    constant_shift_of,
    hereditary_staircase,
    ideal_multiply,
    ideal_power,
    order_ideal,
    radical,
    validate_global_order,
    validate_order,
)

M2 = maximal_ideals_above(ZZ, 2)[0]
P5, Q5 = maximal_ideals_above(ZI, 5)


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


class TestLocalPicent:
    def test_cyclic_order_counts_classes(self):
        for blocks, expect in [((1, 1), 2), ((2, 1), 2), ((1, 1, 1), 3), ((3,), 1)]:
            lp = picent_local(hereditary_staircase(blocks, ZZ, M2))
            assert lp.cyclic_order == expect

    def test_generator_is_radical(self):
        e = hereditary_staircase((1, 1), ZZ, M2)
        lp = picent_local(e)
        assert lp.generator.entries == radical(e).entries

    def test_radical_power_is_scalar(self):
        e = hereditary_staircase((1, 1, 1), ZZ, M2)
        lp = picent_local(e)
        cube = ideal_power(radical(e), lp.cyclic_order)
        assert constant_shift_of(cube.entries, e.entries) == 1

    def test_non_hereditary_rejected(self):
        e = validate_order([[0, 0], [2, 0]], ZZ, M2)
        with pytest.raises((NotHereditary, PicError)):
            picent_local(e)


class TestGlobalPicent:
    def test_gaussian_example(self):
        pg = picent_global(gaussian_staircase(5))
        assert [(str(m), lp.cyclic_order) for m, lp in pg.components] == [
            ("(1+2i)", 5),
            ("(2+1i)", 5),
        ]

    def test_matrix_ring_trivial(self):
        one = FractionalIdealR.one(ZZ)
        order = validate_global_order(ZZ, [[one, one], [one, one]])
        assert picent_global(order).components == ()

    def test_rational_analog(self):
        one = FractionalIdealR.one(ZZ)
        six = FractionalIdealR.principal(ZZ, 6)
        pg = picent_global(validate_global_order(ZZ, [[one, one], [six, one]]))
        assert [(m.residue_char, lp.cyclic_order) for m, lp in pg.components] == [
            (2, 2),
            (3, 2),
        ]


class TestClasses:
    def test_roundtrip(self):
        order = gaussian_staircase(3)
        target = PicClass.of({Q5: 2})
        x = construct_class_representative(order, target)
        assert pic_class_of(x).as_dict() == {Q5: 2}

    def test_trivial_class(self):
        order = gaussian_staircase(3)
        x = construct_class_representative(order, PicClass.of({}))
        assert pic_class_of(x).as_dict() == {}

    def test_classes_multiply(self):
        e = hereditary_staircase((1, 1, 1), ZZ, M2)
        r = radical(e)
        sq = ideal_multiply(r, r)
        lp = picent_local(e)
        # class arithmetic: [r]*[r] = [r^2], order 3 overall
        assert lp.cyclic_order == 3
        assert constant_shift_of(ideal_power(r, 3).entries, e.entries) is not None
        assert constant_shift_of(sq.entries, e.entries) is None

    def test_unsupported_place_rejected(self):
        order = gaussian_staircase(2)
        (m3,) = maximal_ideals_above(ZI, 3)
        with pytest.raises(PicError):
            construct_class_representative(order, PicClass.of({m3: 1}))
