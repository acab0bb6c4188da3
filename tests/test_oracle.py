import itertools

import pytest

from gradedorders import oracle
from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, maximal_ideals_above
from gradedorders.graded import LocalBase, graded_order, identity_component
from gradedorders.groups import cyclic_group
from gradedorders.oracle import (
    RANK_CAP,
    OracleError,
    RankCapExceeded,
    flatten,
    hereditary_oracle,
    oracle_report,
    radical_mod_m,
)
from gradedorders.tiled import (
    ExponentMatrix,
    hereditary_staircase,
    is_hereditary_local,
    radical,
    validate_order,
)
from gradedorders.graded import construct_from_pic
from gradedorders.pic import PicClass, construct_class_representative
from gradedorders.tiled import validate_global_order

M2 = maximal_ideals_above(ZZ, 2)[0]
M3 = maximal_ideals_above(ZZ, 3)[0]
G1 = cyclic_group(1)


def flat_tiled(exp: ExponentMatrix):
    return flatten(graded_order(G1, LocalBase((exp,)), {}), exp.place)


class TestFlatten:
    def test_rank_counts_lattice_points(self):
        a = flat_tiled(hereditary_staircase((1, 1), ZZ, M2))
        assert a.rank == 4

    def test_graded_rank(self):
        delta = hereditary_staircase((2, 1), ZZ, M2)
        order = construct_from_pic(delta, radical(delta))
        assert flatten(order, M2).rank == 18

    def test_rank_cap(self):
        big = hereditary_staircase((1,) * 15, ZZ, M2)
        assert big.n**2 > RANK_CAP
        with pytest.raises(RankCapExceeded):
            flat_tiled(big)

    def test_quadratic_residue_field_cap(self):
        (m3,) = maximal_ideals_above(ZI, 3)
        big = hereditary_staircase((3, 3), ZI, m3)
        with pytest.raises(OracleError):
            flat_tiled(big)


class TestRadical:
    def test_staircase_radical_dimension(self):
        a = flat_tiled(hereditary_staircase((1, 1), ZZ, M2))
        assert len(radical_mod_m(a)) == 2

    def test_block_staircase_dimension(self):
        # entries outside the diagonal blocks survive in rad/m;
        # within-block radical entries fall into m*Delta
        a = flat_tiled(hereditary_staircase((2, 1), ZZ, M2))
        assert len(radical_mod_m(a)) == 4

    def test_numpy_path_dimension(self):
        # rank 36 exceeds the pure-python threshold
        a = flat_tiled(hereditary_staircase((3, 3), ZZ, M2))
        assert len(radical_mod_m(a)) == 18

    def test_maximal_order_semisimple(self):
        a = flat_tiled(validate_order([[0, 0], [0, 0]], ZZ, M3))
        assert radical_mod_m(a) == [] or len(radical_mod_m(a)) == 0

    def test_small_char_no_trace_shortcut(self):
        # at p = 2 <= dim the trace form is degenerate; the chain must
        # still find the exact radical
        a = flat_tiled(hereditary_staircase((1, 1, 1), ZZ, M2))
        assert len(radical_mod_m(a)) == 6

    def test_quadratic_residue_field(self):
        (m3,) = maximal_ideals_above(ZI, 3)
        a = flat_tiled(hereditary_staircase((1, 1), ZI, m3))
        assert a.field.size == 9
        assert len(radical_mod_m(a)) == 2

    def test_ramified_place(self):
        (m2,) = maximal_ideals_above(ZI, 2)
        a = flat_tiled(hereditary_staircase((1, 1), ZI, m2))
        assert len(radical_mod_m(a)) == 2
        assert hereditary_oracle(a)


class TestHereditaryOracle:
    def test_known_verdicts(self):
        yes = hereditary_staircase((1, 1), ZZ, M2)
        no = validate_order([[0, 0], [2, 0]], ZZ, M2)
        assert hereditary_oracle(flat_tiled(yes))
        assert not hereditary_oracle(flat_tiled(no))

    def test_group_ring_wild_characteristic(self):
        g2 = cyclic_group(2)
        delta = hereditary_staircase((1, 1), ZZ, M2)
        base = LocalBase((delta,))
        order = graded_order(
            g2, base, {g2.elements[1]: identity_component(base)}
        )
        a = flatten(order, M2)
        assert a.rank == 8
        assert not hereditary_oracle(a)

    def test_group_ring_tame_characteristic(self):
        g2 = cyclic_group(2)
        delta = hereditary_staircase((1, 1), ZZ, M3)
        base = LocalBase((delta,))
        order = graded_order(
            g2, base, {g2.elements[1]: identity_component(base)}
        )
        assert hereditary_oracle(flatten(order, M3))

    def test_exhaustive_n2(self):
        for entries in itertools.product(range(3), repeat=2):
            mat = [[0, entries[0]], [entries[1], 0]]
            exp = validate_order(mat, ZZ, M2)
            assert hereditary_oracle(flat_tiled(exp)) == is_hereditary_local(exp)

    def test_numpy_vs_python_consistency(self):
        # the same 3x3 pattern at p = 2 (python path, rank 9) and embedded
        # in a rank-36 order (numpy path) gives consistent verdicts
        small = hereditary_staircase((2, 1), ZZ, M2)
        big = hereditary_staircase((3, 3), ZZ, M2)
        assert hereditary_oracle(flat_tiled(small))
        assert hereditary_oracle(flat_tiled(big))
        bad_big = validate_order(
            [
                [0, 0, 0, 0, 0, 0],
                [2, 0, 0, 0, 0, 0],
                [2, 2, 0, 0, 0, 0],
                [2, 2, 2, 0, 0, 0],
                [2, 2, 2, 2, 0, 0],
                [2, 2, 2, 2, 2, 0],
            ],
            ZZ,
            M2,
        )
        assert not is_hereditary_local(bad_big)
        assert not hereditary_oracle(flat_tiled(bad_big))


class TestReport:
    def test_agreement_on_graded_order(self):
        delta = hereditary_staircase((2, 1), ZZ, M2)
        order = construct_from_pic(delta, radical(delta))
        r = oracle_report(order, M2)
        assert r["agree"] and r["rank"] == 18

    def test_report_is_plain_data(self):
        a = flat_tiled(hereditary_staircase((1, 1), ZZ, M2))
        order = graded_order(G1, LocalBase((hereditary_staircase((1, 1), ZZ, M2),)), {})
        r = oracle_report(order, M2)
        assert set(r) == {"place", "rank", "oracle", "engine", "agree"}


class TestNumpyExactness:
    def test_large_prime_stays_on_exact_path(self, monkeypatch):
        # float64 matmuls are exact only while rank * (p-1)**2 < 2**53; a
        # rank-64 order at p = 2**31 - 1 must never enter the NumPy kernels
        (mp,) = maximal_ideals_above(ZZ, 2**31 - 1)
        delta = hereditary_staircase((1, 1, 1, 1), ZZ, mp)
        order = construct_from_pic(delta, radical(delta))

        def refuse(*args, **kwargs):
            raise AssertionError("NumPy kernel entered beyond its exact range")

        for name in ("_NpFlat", "_np_row_basis", "_np_rref", "_np_invertibility"):
            monkeypatch.setattr(oracle, name, refuse)
        r = oracle_report(order, mp)
        assert r["rank"] == 64
        assert r["oracle"] and r["engine"] and r["agree"]


@pytest.mark.xfail(
    strict=True,
    reason="engine says inner at (2), where the completion M2(Z2[sqrt 3]) is hereditary",
)
def test_engine_agrees_off_the_data_support():
    one = FractionalIdealR.one(ZZ)
    delta = validate_global_order(ZZ, [[one, one], [FractionalIdealR.principal(ZZ, 3), one]])
    order = construct_from_pic(delta, construct_class_representative(delta, PicClass.of({M3: 1})))
    r = oracle_report(order, M2)
    assert r["oracle"] is True
    assert r["agree"]
