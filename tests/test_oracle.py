import itertools
import random

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gradedorders import oracle
from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, maximal_ideals_above
from gradedorders.graded import LocalBase, graded_order, identity_component
from gradedorders.groups import cyclic_group
from gradedorders.oracle import (
    RANK_CAP,
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
        # rank 36, 72 over F_3: inert places run up to rank RANK_CAP // 2
        (m3,) = maximal_ideals_above(ZI, 3)
        big = hereditary_staircase((3, 3), ZI, m3)
        a = flat_tiled(big)
        assert (a.rank, a.dim) == (36, 72)
        assert hereditary_oracle(a) == is_hereditary_local(big)


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
        assert a.place.residue_size == 9
        # over F_3 the radical has twice its GF(9)-dimension 2
        assert len(radical_mod_m(a)) == 4

    def test_ramified_place(self):
        (m2,) = maximal_ideals_above(ZI, 2)
        a = flat_tiled(hereditary_staircase((1, 1), ZI, m2))
        assert len(radical_mod_m(a)) == 2
        assert hereditary_oracle(a)

    def test_radical_matches_closed_form(self):
        # rad(Delta)/m*Delta is spanned by the basis units pi^lam_ij e_ij
        # at the positions where the radical's exponent equals lam_ij
        # (each unit and i times it, over F_p, at an inert place)
        (m3i,) = maximal_ideals_above(ZI, 3)
        (m2i,) = maximal_ideals_above(ZI, 2)
        places = [(ZZ, M2), (ZZ, M3), (ZI, m3i), (ZI, m2i)]
        checked = 0
        for n in (1, 2, 3):
            for vals in itertools.product(range(3), repeat=n * (n - 1)):
                it = iter(vals)
                mat = [[0 if i == j else next(it) for j in range(n)] for i in range(n)]
                if any(mat[i][k] + mat[k][j] < mat[i][j] for i in range(n) for j in range(n) for k in range(n)):
                    continue
                for ring, m in places:
                    exp = validate_order(mat, ring, m)
                    rad = radical(exp).entries
                    a = flat_tiled(exp)
                    deg = a.degree
                    units = [
                        deg * k + c
                        for k, (_, _, i, j) in enumerate(a.labels)
                        if rad[i][j] == mat[i][j]
                        for c in range(deg)
                    ]
                    expected = tuple(
                        tuple(int(c == u) for c in range(a.dim)) for u in sorted(units)
                    )
                    assert radical_mod_m(a) == expected, (mat, str(m))
                    checked += 1
        assert checked == 4 * 291


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


LARGE_PRIMES = (100000007, 2**31 - 1, 4294967311)


class TestNumpyExactness:
    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_kernels_match_sympy_at_large_primes(self, p):
        # float64 products of residues this large are not exact, and int64
        # products overflow; rank and nullspace must still be exact
        rng = random.Random(p)
        field = GF(p)
        for rows, cols, r in [(60, 14, 10)] * 5 + [(20, 20, 12)] * 5:
            left = [[rng.randrange(p) for _ in range(r)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)] for _ in range(r)]
            mat = [
                [sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                for row in left
            ]
            dm = DomainMatrix([[field(x) for x in row] for row in mat], (rows, cols), field)
            assert oracle._rank(mat, p) == dm.rank() == r
            ours = [[field(int(x)) for x in row] for row in oracle._nullspace(mat, p)]
            both = ours + dm.nullspace().to_list()
            assert len(ours) == cols - r
            assert DomainMatrix(both, (len(both), cols), field).rank() == cols - r

    def test_large_prime_stays_on_exact_path(self):
        # rank 64 (128 over F_p at the inert place 2**31 - 1 of Z[i])
        for ring, p in [(ZZ, p) for p in LARGE_PRIMES] + [(ZI, 2**31 - 1)]:
            (mp,) = maximal_ideals_above(ring, p)
            delta = hereditary_staircase((1, 1, 1, 1), ring, mp)
            order = construct_from_pic(delta, radical(delta))
            r = oracle_report(order, mp)
            assert r["rank"] == 64
            assert r["oracle"] and r["engine"] and r["agree"], (ring, p)


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
