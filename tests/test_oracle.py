import itertools
import json
import random

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gradedorders import oracle
from gradedorders.base_rings import ZZ, ZI, FractionalIdealR, KElem, maximal_ideals_above
from gradedorders.cli import main
from gradedorders.graded import LocalBase, graded_order, identity_component
from gradedorders.groups import cyclic_group
from gradedorders.oracle import (
    RANK_CAP,
    AssociativityFailure,
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
P5, Q5 = maximal_ideals_above(ZI, 5)
G1 = cyclic_group(1)


def flat_tiled(exp: ExponentMatrix):
    return flatten(graded_order(G1, LocalBase((exp,)), {}), exp.place)


def group_ring(m):
    # Z_(p)[C_2] over the hereditary staircase (1, 1): wild at p = 2
    g2 = cyclic_group(2)
    base = LocalBase((hereditary_staircase((1, 1), ZZ, m),))
    return flatten(graded_order(g2, base, {g2.elements[1]: identity_component(base)}), m)


def gaussian_outer(n):
    # the n x n Gaussian staircase at both places over 5, graded by the
    # Picard class of (2+1i): the bundled 'outer' order at n = 5
    st = hereditary_staircase((1,) * n)
    rows = [
        [FractionalIdealR.from_factors(ZI, {P5: st.entries[i][j], Q5: st.entries[i][j]}) for j in range(n)]
        for i in range(n)
    ]
    delta = validate_global_order(ZI, rows)
    return construct_from_pic(delta, construct_class_representative(delta, PicClass.of({Q5: 1})))


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

    def test_associativity_failure(self, tmp_path, capsys):
        # gamma(e, g) = 3 but gamma(g, e) = 1 on Z_(2)[C_2] over the
        # staircase (1, 1): not a cocycle, so the scalars of the two
        # bracketings of e_0 * e_0 * e_4 differ while their targets agree
        g2 = cyclic_group(2)
        e, g = g2.elements
        base = LocalBase((hereditary_staircase((1, 1), ZZ, M2),))
        order = graded_order(g2, base, {g: identity_component(base)}, {(e, g): (KElem.of(3),)})
        with pytest.raises(AssociativityFailure) as failure:
            flatten(order, M2)
        assert str(failure.value) == "associativity fails on basis triple (0,0,4)"
        spec = {
            "kind": "explicit",
            "delta": {"ring": "Z", "prime": "2", "staircase": [1, 1]},
            "group": {"degree": 2, "gens": ["(1 2)"]},
            "components": {"(1 2)": {"entries": [[0, 0], [1, 0]]}},
            "gamma": {"()|(1 2)": ["3"]},
        }
        path = tmp_path / "order.json"
        path.write_text(json.dumps(spec))
        assert main(["oracle-check", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: associativity fails on basis triple (0,0,4)\n")

    def test_associativity_check_matches_loop(self, monkeypatch):
        # the index-level check against a loop over the products, on group
        # rings of C_2 and C_3 with random unit gammas, most of them not
        # cocycles: the same verdict and the same first failing triple
        def loop_check(rows, scalars):
            products = {(e1, e2): (t, scalars[s]) for e1, e2, t, s in rows.tolist()}
            by_first = {}
            for (e1, e2), val in products.items():
                by_first.setdefault(e1, []).append((e2, val))
            for (e1, e2), (t12, s12) in products.items():
                for e3, (t23, s23) in by_first.get(e2, []):
                    lt, ls = products[(t12, e3)]
                    rt, rs = products[(e1, t23)]
                    if lt != rt or s12 * ls != s23 * rs:
                        return f"associativity fails on basis triple ({e1},{e2},{e3})"
            return None

        seen = []
        check = oracle._check_associative

        def both(n, rows, scalars):
            seen.append(loop_check(rows, scalars))
            check(n, rows, scalars)

        monkeypatch.setattr(oracle, "_check_associative", both)
        rng = random.Random(3)
        verdicts = set()
        for m, units in ((M2, (1, 3, 5, 7, -1)), (M3, (1, 2, 4, 5, -1))):
            for size, blocks in itertools.product((2, 3), ((1, 1), (2, 1))):
                grp = cyclic_group(size)
                base = LocalBase((hereditary_staircase(blocks, ZZ, m),))
                comps = {g: identity_component(base) for g in grp.elements}
                for _ in range(4):
                    pairs = rng.sample(list(itertools.product(grp.elements, repeat=2)), 2)
                    gamma = {pair: (KElem.of(rng.choice(units)),) for pair in pairs}
                    try:
                        flatten(graded_order(grp, base, comps, gamma), m)
                        got = None
                    except AssociativityFailure as e:
                        got = str(e)
                    assert got == seen[-1], (str(m), size, blocks, gamma)
                    verdicts.add(got is None)
        assert verdicts == {True, False}


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
        a = group_ring(M2)
        assert a.rank == 8
        assert not hereditary_oracle(a)

    def test_group_ring_tame_characteristic(self):
        assert hereditary_oracle(group_ring(M3))

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


def unscreened_pair_coeffs(alg, v):
    """pair_coeffs without the nilpotency screen: the Hessenberg
    characteristic polynomial of every pair product on every block."""
    p, d = alg.p, len(v)
    ku, lu = np.triu_indices(d)
    z = alg.products(v, v).reshape(d, d, alg.n)[ku, lu]
    part = np.ones((len(z), 1), dtype=alg.dtype)
    maps, groups = alg.block_groups
    for s, cols, start in groups:
        mc = oracle._matmul(z, maps[:, start : start + cols.size * s], p).reshape(len(z), len(cols), s, s)
        for j in range(len(cols)):
            part = oracle._poly_mul_batch(part, oracle._batched_charpoly(mc[:, j], p), p)
    return part


class TestPairScreen:
    @staticmethod
    def algebras():
        (m3i,) = maximal_ideals_above(ZI, 3)
        (big,) = maximal_ideals_above(ZZ, LARGE_PRIMES[-1])
        gauss = gaussian_outer(3)
        yield "staircase (1,1,1) at 2", flat_tiled(hereditary_staircase((1, 1, 1), ZZ, M2))
        yield "staircase (2,1) at 2", flat_tiled(hereditary_staircase((2, 1), ZZ, M2))
        yield "staircase (1,1) at inert 3", flat_tiled(hereditary_staircase((1, 1), ZI, m3i))
        yield "staircase (1,1) at a 33-bit prime", flat_tiled(hereditary_staircase((1, 1), ZZ, big))
        yield "wild group ring", group_ring(M2)
        yield "tame group ring", group_ring(M3)
        yield "rank-27 Gaussian at (1+2i)", flatten(gauss, P5)
        yield "rank-27 Gaussian at (2+1i)", flatten(gauss, Q5)

    def test_screen_is_exact(self):
        # the screened coefficients equal a charpoly of every pair product,
        # for the whole basis, the trace-form kernel the chain starts from,
        # and the radical
        seen = set()
        for name, a in self.algebras():
            alg = oracle._Alg.of(a)
            p, n = alg.p, alg.n
            radical_basis = np.array(radical_mod_m(a), dtype=alg.dtype).reshape(-1, n)
            for v in (
                np.eye(n, dtype=alg.dtype),
                oracle._nullspace(alg.trace_matrix().T, p),
                radical_basis,
            ):
                if not len(v):
                    continue
                coeffs, (ku, lu) = alg.pair_coeffs(v)
                assert (coeffs == unscreened_pair_coeffs(alg, v)).all(), name
                d = len(v)
                live = alg.products(v, v).reshape(d, d, n)[ku, lu].any(axis=1)
                xn = ~coeffs[:, :n].any(axis=1)
                seen.add("no live pair" if not live.any() else "all live nilpotent" if xn.all() else "survivors")
        assert seen == {"no live pair", "all live nilpotent", "survivors"}

    def test_scaled_copies_share_a_line(self):
        # v beside 2v and 3v: scaled copies at p = 5, an exact repeat and
        # zero rows at p = 2, and the object dtype at the 33-bit prime
        seen = set()
        for name, a in self.algebras():
            alg = oracle._Alg.of(a)
            p = alg.p
            v = oracle._nullspace(alg.trace_matrix().T, p)
            if not len(v):
                continue
            v = np.vstack([v, 2 * v % p, 3 * v % p])
            coeffs, _ = alg.pair_coeffs(v)
            assert (coeffs == unscreened_pair_coeffs(alg, v)).all(), name
            seen.add(p)
        assert {2, 3, 5, LARGE_PRIMES[-1]} <= seen

    def test_one_charpoly_per_line(self, monkeypatch):
        # _batched_charpoly sees at most one row per distinct line of the
        # live pair products of the basis e and of 2e, products of scaled
        # matrix units
        for m in (P5, Q5):
            alg = oracle._Alg.of(flatten(gaussian_outer(3), m))
            p, n = alg.p, alg.n
            v = np.vstack([np.eye(n, dtype=alg.dtype), 2 * np.eye(n, dtype=alg.dtype)])
            d = len(v)
            ku, lu = np.triu_indices(d)
            lines = set()
            live = 0
            for z in alg.products(v, v).reshape(d, d, n)[ku, lu].tolist():
                if any(z):
                    live += 1
                    inv = pow(next(x for x in z if x), -1, p)
                    lines.add(tuple(x * inv % p for x in z))
            received = []
            kernel = oracle._batched_charpoly
            monkeypatch.setattr(oracle, "_batched_charpoly", lambda h, p: received.append(len(h)) or kernel(h, p))
            alg.pair_coeffs(v)
            monkeypatch.undo()
            assert received and max(received) <= len(lines) < live, str(m)

    def test_nilpotent_screen(self):
        p = 5
        shift = np.eye(4, k=1, dtype=np.int64)  # nilpotent of index 4
        stack = np.stack([np.zeros((4, 4), np.int64), shift, shift + np.eye(4, k=-3, dtype=np.int64), 5 * shift])
        assert oracle._nilpotent(stack, p).tolist() == [True, True, False, True]
        assert oracle._nilpotent(stack[:0], p).tolist() == []


class TestProducts:
    @staticmethod
    def reference_products(alg, u, v):
        """u_k * v_l summed over every structure constant, one product at a
        time, in Python integers."""
        terms = list(zip(*(x.tolist() for x in (alg.e1, alg.e2, alg.tgt, alg.coef))))
        rows = []
        for x in u.tolist():
            for y in v.tolist():
                z = [0] * alg.n
                for a, b, t, c in terms:
                    z[t] += c * x[a] * y[b]
                rows.append([w % alg.p for w in z])
        return np.array(rows, dtype=object)

    @staticmethod
    def algebras():
        for name, a in TestPairScreen.algebras():
            yield name, oracle._Alg.of(a)
        alg = oracle._Alg.of(flatten(gaussian_outer(3), P5))
        basis, pivots = oracle._row_basis(np.array(radical_mod_m(flatten(gaussian_outer(3), P5))), alg.p)
        yield "quotient of the rank-27 Gaussian at (1+2i)", oracle._quotient(alg, basis, pivots)
        none = np.zeros(0, dtype=np.int64)
        yield "no structure constants", oracle._Alg(5, 3, none, none, none, none, [[0, 1, 2]])

    def test_sparse_products_match_dense(self):
        rng = random.Random(7)
        for name, alg in self.algebras():
            p, n = alg.p, alg.n

            def vectors(count):
                return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(count)], dtype=alg.dtype)

            eye = np.eye(n, dtype=alg.dtype)
            for u, v in ((eye, vectors(3)), (vectors(4), eye), (vectors(3), vectors(5))):
                got = alg.products(u, v)
                assert got.shape == (len(u) * len(v), n), name
                assert (got == self.reference_products(alg, u, v)).all(), name


class TestCertify:
    def test_whole_algebra_is_not_nilpotent(self):
        alg = oracle._Alg.of(flat_tiled(validate_order([[0, 0], [0, 0]], ZZ, M3)))
        basis, pivots = oracle._row_basis(np.eye(alg.n, dtype=alg.dtype), alg.p)
        with pytest.raises(oracle.OracleError, match="not nilpotent"):
            oracle._certify(alg, basis, pivots)

    def test_subspace_that_is_not_an_ideal(self):
        # the span of the matrix unit e_11 of M_2(F_3)
        a = flat_tiled(validate_order([[0, 0], [0, 0]], ZZ, M3))
        assert a.labels[0][2:] == (0, 0)
        alg = oracle._Alg.of(a)
        basis, pivots = oracle._row_basis(np.eye(alg.n, dtype=alg.dtype)[:1], alg.p)
        with pytest.raises(oracle.OracleError, match="not an ideal"):
            oracle._certify(alg, basis, pivots)


LARGE_PRIMES = (100000007, 2**31 - 1, 4294967311)


class TestComplement:
    @pytest.mark.parametrize("p", (2, 5, 2**31 - 1))
    def test_rank_in_the_quotient(self, p):
        # rank([J; S]) = d + rank(S @ C) for C the complement matrix of a
        # reduced-echelon J, with S outside J, inside it, or partly in it
        rng = random.Random(p)
        dtype = oracle._dtype(p)

        def rand(rows, cols):
            return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=dtype).reshape(rows, cols)

        for n, d in [(6, 0), (6, 2), (9, 5), (12, 12), (12, 7)]:
            basis, pivots = oracle._row_basis(rand(d, n), p)
            comp = oracle._complement(basis, pivots, p)
            assert comp.shape == (n, n - len(basis))
            assert not oracle._matmul(basis, comp, p).any()
            inside = oracle._matmul(rand(3, len(basis)), basis, p)
            for s in (rand(4, n), inside, (inside + rand(3, n) * (rand(3, 1) % 2)) % p):
                want = oracle._rank(np.vstack([basis, s]), p)
                assert len(basis) + oracle._rank(oracle._matmul(s, comp, p), p) == want, (n, d)


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


def mixed_size_bases():
    """Orders at 3 over the trivial group whose local base has prime
    blocks of different sizes: a semiprime one (radical 0), a hereditary
    one and a non-hereditary one, each with a rank-1 block beside a
    rank-4 or rank-6 one."""
    one = validate_order([[0]], ZZ, M3)
    yield "M_1 x M_2", graded_order(G1, LocalBase((one, validate_order([[0, 0], [0, 0]], ZZ, M3))), {}), True
    yield "M_1 x staircase (2,1)", graded_order(G1, LocalBase((one, hereditary_staircase((2, 1), ZZ, M3))), {}), True
    yield "staircase (1,1) x M_1", graded_order(G1, LocalBase((hereditary_staircase((1, 1), ZZ, M3), one)), {}), True
    yield "M_1 x non-hereditary", graded_order(G1, LocalBase((one, validate_order([[0, 0], [2, 0]], ZZ, M3))), {}), False


def test_mixed_block_sizes_agree_with_engine():
    for name, order, hereditary in mixed_size_bases():
        r = oracle_report(order, M3)
        assert r["oracle"] is r["engine"] is hereditary, name


class TestBlockCertificate:
    @staticmethod
    def whole_space_annihilators(alg, basis):
        """The right and left annihilators as nullspaces of the (d*n) x n
        systems of every product r_k * e_l and e_l * r_k."""
        p, n = alg.p, alg.n
        eye = np.eye(n, dtype=alg.dtype)
        out = []
        for u, v in ((basis, eye), (eye, basis)):
            prods = alg.products(u, v).T.reshape(n, len(u), len(v))  # [t, k, l]
            system = (prods if v is eye else prods.transpose(0, 2, 1)).reshape(-1, n)
            out.append(oracle._nullspace(system, p))
        return out

    def test_annihilators_match_whole_space_nullspaces(self):
        from test_acceptance import _sweep_graded_corpus

        (m3i,) = maximal_ideals_above(ZI, 3)
        gauss = gaussian_outer(3)
        cases = [(order, m) for order in _sweep_graded_corpus() for m in order.places()]
        cases += [(gauss, P5), (gauss, Q5)]
        cases.append((graded_order(G1, LocalBase((hereditary_staircase((2, 1), ZI, m3i),)), {}), m3i))
        cases += [(order, M3) for _, order, _ in mixed_size_bases()]
        kinds = set()
        for order, m in cases:
            a = flatten(order, m)
            alg = oracle._Alg.of(a)
            basis, annihilators = alg.radical
            for got, want in zip(annihilators, self.whole_space_annihilators(alg, basis)):
                assert len(got) == len(want) == oracle._rank(np.vstack([got, want]), alg.p), (str(m), a.rank)
            perms = [comp.perm for comp in order.localize(m).components.values()]
            kinds.add("inert" if a.degree == 2 else "split")
            kinds.add("permuted" if any(list(pm) != sorted(pm) for pm in perms) else "kept")
            kinds.add("mixed" if len({len(col) for col in a.blocks}) > 1 else "one size")
            kinds.add("radical" if len(basis) else "semiprime")
        assert kinds == {"inert", "split", "permuted", "kept", "mixed", "one size", "radical", "semiprime"}

    def test_proper_ideal_that_is_not_nilpotent(self):
        # M_2(F_3) x M_2(F_3) and its first factor: a two-sided ideal
        mx = validate_order([[0, 0], [0, 0]], ZZ, M3)
        a = flatten(graded_order(G1, LocalBase((mx, mx)), {}), M3)
        alg = oracle._Alg.of(a)
        factor = [k for k, (_, b, _, _) in enumerate(a.labels) if b == 0]
        assert len(factor) == 4 < alg.n
        basis, pivots = oracle._row_basis(np.eye(alg.n, dtype=alg.dtype)[factor], alg.p)
        with pytest.raises(oracle.OracleError, match="not nilpotent"):
            oracle._certify(alg, basis, pivots)

    def test_one_sided_ideals_are_not_ideals(self):
        # in M_2(F_3) the first row {e_11, e_12} is a right ideal and not
        # a left one (e_21 * e_11 = e_21), so only the opposite side's
        # check fails; the first column is the mirror case
        a = flat_tiled(validate_order([[0, 0], [0, 0]], ZZ, M3))
        alg = oracle._Alg.of(a)
        where = {label[2:]: k for k, label in enumerate(a.labels)}
        eye = np.eye(alg.n, dtype=alg.dtype)
        for units in (((0, 0), (0, 1)), ((0, 0), (1, 0))):
            basis, pivots = oracle._row_basis(eye[[where[u] for u in units]], alg.p)
            with pytest.raises(oracle.OracleError, match="not an ideal"):
                oracle._certify(alg, basis, pivots)

    @pytest.mark.parametrize("p", (2, 3, 5) + LARGE_PRIMES)
    def test_batched_echelon_matches_row_basis(self, p):
        # member by member: row c of the result is the basis row with
        # pivot c, and the rows at free columns are zero
        rng = random.Random(p)
        dtype = oracle._dtype(p)
        for size, rows, members in [(1, 3, 4), (2, 0, 3), (3, 7, 0), (3, 10, 5), (4, 9, 6), (5, 26, 3)]:
            stack = np.zeros((members, rows, size), dtype=dtype)
            for b in range(members):
                rank = rng.randrange(1, size + 1) if b else 0  # member 0 is all zero
                left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(rows)], dtype=object)
                right = np.array([[rng.randrange(p) for _ in range(size)] for _ in range(rank)], dtype=object)
                stack[b] = (left.reshape(rows, rank) @ right.reshape(rank, size)) % p if rank else 0
            ech = oracle._batched_echelon(stack, p)
            assert ech.shape == (members, size, size)
            for b in range(members):
                basis, pivots = oracle._row_basis(stack[b], p)
                free = [c for c in range(size) if c not in pivots]
                assert (ech[b][pivots] == basis).all(), (size, rows, b)
                assert not ech[b][free].any(), (size, rows, b)
                assert np.diagonal(ech[b]).tolist() == [int(c in pivots) for c in range(size)]


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
