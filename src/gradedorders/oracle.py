"""Brute-force hereditariness oracle for graded orders at one place.

The graded order is flattened to an explicit structure-constant algebra
over the completed base ring: basis elements are matrix units scaled by
uniformizer powers, one per component entry, tagged with the grade.  The
radical of the reduction mod m is found by the characteristic-polynomial
coefficient chain (valid in small characteristic, where the plain trace
form fails), certified as an ideal, as nilpotent by squaring (J, J^2,
J^4, ... shrinks to 0) and by a re-run on the quotient.  The chain
computes Hessenberg characteristic polynomials only for the pair
products whose left multiplication is not nilpotent, which a few
squarings decide; a nilpotent one has x^n, so the screen changes no
coefficient.  Hereditariness is then radical invertibility, decided by
linear algebra over the residue field at the A/mA and m^-1*A/A levels.

Two kernels work on indices rather than dense arrays, each computing
exactly what the dense form would.  Flattening numbers each distinct
scalar and checks associativity on those numbers, multiplying each
distinct pair once; scalars are equal exactly when their normal forms
are, so numbers compare as the scalars do.  Every product of algebra
elements comes from one kernel, _Alg.products, which sums over the
structure constants grouped by target: the same nonzero terms as the
dense left multiplication matrix.  The radical chain, the nilpotency
squaring, the ideal check, the annihilators and the invertibility step
all use it, and the certificate builds each side's products once.

All linear algebra runs over the prime field F_p, in NumPy arrays of
residues.  At an inert Gaussian prime the completed order is read as a
Z_p-order of twice the rank, with basis {e_k, i*e_k} (i is central and
the uniformizer is p); its Jacobson radical and its hereditariness are
those of the ring, so nothing is lost.

Everything here is independent of the structural verdict engine: only
the multiplication table is shared input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base_rings import KElem, MaximalIdeal
from .gf import digit_map
from .graded import GradedOrder
from .groups import pmul
from .semiprime import main_hereditary_verdict

# bounds the rank over F_p that the kernels see: the flattened rank, or
# twice it at an inert place
RANK_CAP = 200


class OracleError(ValueError):
    pass


class RankCapExceeded(OracleError):
    pass


class AssociativityFailure(OracleError):
    pass


def _dtype(p: int):
    """Residue arrays mod p are int64 while RANK_CAP * p**3 <= 2**62 (p at
    most 284627) and Python ints (dtype=object) beyond, so no intermediate
    can overflow.  The largest intermediate is in _batched_charpoly, whose
    deferred reduction needs n * p**3 <= 2**62 for a block of size
    n <= RANK_CAP.  Every other kernel sums at most RANK_CAP residues, or
    two products of residues, and leaves longer sums to _matmul; so does
    the invertibility step's _Alg mod p**2, int64 for p up to 523."""
    return np.int64 if RANK_CAP * p**3 <= 2**62 else object


def _matmul(a, b, mod: int):
    """a @ b mod `mod`, exactly, for entries in [0, mod).

    float64 BLAS is exact while a dot product of length k, below
    k * (mod-1)**2, stays below 2**53.  Beyond that the product is taken
    in integers: both factors are split into limbs of s bits, with
    k * 4**s <= 2**53 so that each limb product is exact in float64, and
    the limb products are recombined in Python integers (the exact
    modular products of FFLAS-FFPACK)."""
    dtype = np.result_type(a, b)
    k = a.shape[-1]
    if k * (mod - 1) ** 2 < 2**53:
        out = np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
        out %= mod
        return out.astype(dtype, copy=False)
    s = (53 - k.bit_length()) // 2
    count = -(-(mod - 1).bit_length() // s)

    def limbs(x):
        x = x.astype(np.int64 if mod <= 2**63 else object)
        return [((x >> (s * i)) & ((1 << s) - 1)).astype(np.float64) for i in range(count)]

    out = 0
    for i, x in enumerate(limbs(a)):
        for j, y in enumerate(limbs(b)):
            part = np.matmul(x, y).astype(np.int64).astype(object)
            out = out + part * pow(2, s * (i + j), mod)
    return (out % mod).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Flattening


@dataclass
class StructureConstantOrder:
    """A graded order at one place as an explicit algebra: basis element
    k is labels[k] = (grade, block, row, col), representing the matrix
    unit at that component position scaled by the component's uniformizer
    power.  products maps a pair of basis indices to (target, exact unit
    scalar times uniformizer power)."""

    place: MaximalIdeal
    rank: int
    labels: list
    products: dict
    columns: list  # columns[c] = sorted basis indices in absolute column c

    @property
    def degree(self) -> int:
        """F_p-coordinates per basis element: 2 at an inert place."""
        return self.place.residue_degree

    @property
    def dim(self) -> int:
        """The rank over F_p that the kernels see."""
        return self.rank * self.degree

    @property
    def blocks(self) -> list:
        """The columns over F_p: basis element k is deg*k + a, standing
        for i**a times the order's basis element k."""
        deg = self.degree
        return [[deg * k + a for k in col for a in range(deg)] for col in self.columns]

    @cached_property
    def w_products(self) -> tuple:
        """Structure constants over F_p to first order in the uniformizer,
        as coordinate arrays (e1, e2, t, lo, hi): e1 * e2 has the
        coefficient lo + hi*pi at e_t (see gf.digit_map)."""
        digits, _ = digit_map(self.place)
        deg = self.degree
        # i**k times a scalar, for the restriction of scalars at an inert place
        turns = (KElem.of(1), KElem.of(0, 1), KElem.of(-1))
        memo: dict = {}
        rows = []
        for (e1, e2), (t, s) in self.products.items():
            for a in range(deg):
                for b in range(deg):
                    key = (s, a + b)
                    dg = memo.get(key)
                    if dg is None:
                        dg = memo[key] = digits(s * turns[a + b] if a + b else s)
                    for c, (lo, hi) in enumerate(dg):
                        if lo or hi:
                            rows.append((deg * e1 + a, deg * e2 + b, deg * t + c, lo, hi))
        cols = list(zip(*rows)) or [()] * 5
        dtype = _dtype(self.place.residue_char)
        return tuple(np.array(c, dtype=np.int64) for c in cols[:3]) + tuple(
            np.array(c, dtype=dtype) for c in cols[3:]
        )

    @cached_property
    def residue_products(self) -> tuple:
        """Structure constants of A/mA over F_p: arrays (e1, e2, t, c)."""
        e1, e2, tgt, lo, _ = self.w_products
        keep = lo != 0
        return e1[keep], e2[keep], tgt[keep], lo[keep]

    @cached_property
    def residue_algebra(self) -> _Alg:
        """A/mA over F_p, built once per order, so that the radical and
        the invertibility test share it and its cached tables."""
        return _Alg.of(self)


def _check_associative(n: int, rows, scalars: list) -> None:
    """(e1*e2)*e3 == e1*(e2*e3) for every basis triple whose chain e1*e2,
    e2*e3 is nonzero, or AssociativityFailure naming the first failing
    triple, ordered by the row of e1*e2 and then by e3 (the order in
    which flatten makes the products).

    rows holds (e1, e2, target, scalar number) per product; scalars[k] is
    the scalar numbered k.  The check runs on indices: the triples are
    index arrays, and each distinct pair of scalar numbers that a side of
    the identity needs is multiplied once and its product numbered.
    Scalars are equal exactly when their normal forms are, so the two
    sides agree exactly when their targets and numbers do."""
    e1, e2, tgt, sid = rows.T
    target = np.full((n, n), -1)
    target[e1, e2] = tgt
    number = np.full((n, n), -1)
    number[e1, e2] = sid
    first, e3 = np.nonzero((target >= 0)[e2])  # product first = e1*e2, and e2*e3 != 0
    a, b, t12 = e1[first], e2[first], tgt[first]
    t23 = target[b, e3]
    lt, rt = target[t12, e3], target[a, t23]
    # a chain whose other bracketing has no product fails as well (its
    # key, clipped to 0 below, numbers nothing that is compared)
    ok = (lt >= 0) & (rt >= 0)
    size = len(scalars)
    left = sid[first] * size + number[t12, e3]  # (e1*e2)*e3
    right = number[b, e3] * size + number[a, t23]  # e1*(e2*e3)
    keys = np.concatenate([left, right]).clip(0)
    pairs = np.unique(keys)
    products: dict[KElem, int] = {}
    numbered = np.array(
        [products.setdefault(scalars[k // size] * scalars[k % size], len(products)) for k in pairs.tolist()],
        dtype=np.intp,
    )[np.searchsorted(pairs, keys)]
    bad = np.flatnonzero(~ok | (lt != rt) | (numbered[: len(first)] != numbered[len(first) :]))
    if len(bad):
        k = bad[0]
        raise AssociativityFailure(f"associativity fails on basis triple ({a[k]},{b[k]},{e3[k]})")


def flatten(order: GradedOrder, m: MaximalIdeal) -> StructureConstantOrder:
    """Realize the completion of the graded order at m as a structure
    constant algebra; associativity is verified exhaustively.

    Scalars are interned: each (uniformizer exponent, gamma) is multiplied
    out once and each distinct value numbered, so that the associativity
    check (see _check_associative) multiplies each distinct pair of
    numbers once rather than two scalars per basis triple."""
    local = order.localize(m)
    base = local.base
    t = base.t
    sizes = [blk.n for blk in base.blocks]
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    els = sorted(local.group.elements)
    labels = []
    index = {}
    for g in els:
        comp = local.components[g]
        for b in range(t):
            for i in range(sizes[b]):
                for j in range(sizes[comp.perm[b]]):
                    index[(g, b, i, j)] = len(labels)
                    labels.append((g, b, i, j))
    n_total = len(labels)
    deg = m.residue_degree
    if n_total * deg > RANK_CAP:
        raise RankCapExceeded(f"flattened rank {n_total} exceeds cap {RANK_CAP // deg}")
    gen = m.generator
    one = KElem.of(1, 0)
    powers: dict[int, KElem] = {0: one, 1: gen}

    def gen_pow(e: int) -> KElem:
        cached = powers.get(e)
        if cached is None:
            cached = powers[e] = gen**e
        return cached

    # each distinct scalar gets a number, so the associativity check can
    # compare numbers; memo maps (uniformizer exponent, gamma) to both
    numbers: dict[KElem, int] = {}
    memo: dict = {}
    products = {}
    rows = []  # (e1, e2, target, scalar number)
    for e1, (g, b, i, j) in enumerate(labels):
        comp_g = local.components[g]
        bg = comp_g.perm[b]
        x1 = comp_g.mats[b][i][j]
        for h in els:
            comp_h = local.components[h]
            gh = pmul(g, h)
            gamma = local.gamma_at(g, h)[b]
            comp_gh = local.components[gh]
            for j2 in range(sizes[comp_h.perm[bg]]):
                e2 = index[(h, bg, j, j2)]
                x2 = comp_h.mats[bg][j][j2]
                x3 = comp_gh.mats[b][i][j2]
                key = (x1 + x2 - x3, gamma)
                got = memo.get(key)
                if got is None:
                    scal = gen_pow(key[0]) if gamma == one else gen_pow(key[0]) * gamma
                    got = memo[key] = (scal, numbers.setdefault(scal, len(numbers)))
                t12 = index[(gh, b, i, j2)]
                products[(e1, e2)] = (t12, got[0])
                rows.append((e1, e2, t12, got[1]))
    columns = [[] for _ in range(offs[-1])]
    for k, (g, b, i, j) in enumerate(labels):
        comp = local.components[g]
        columns[offs[comp.perm[b]] + j].append(k)
    _check_associative(n_total, np.array(rows, dtype=np.intp).reshape(-1, 4), list(numbers))
    return StructureConstantOrder(m, n_total, labels, products, columns)


# ---------------------------------------------------------------------------
# Linear algebra mod p


def _residues(mat, p: int):
    return np.asarray(mat, dtype=_dtype(p)) % p


def _rref(mat, p):
    """Reduced row echelon form mod p, and the pivot columns."""
    a = _residues(mat, p)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if len(nz) == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # rows left of c are already clear, so only columns >= c move
        col = a[:, c].copy()
        col[r] = 0
        a[:, c:] = (a[:, c:] - col[:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _nullspace(mat, p):
    """Basis of the right kernel, as row vectors."""
    basis, pivots = _row_basis(mat, p)
    ncols = basis.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=basis.dtype)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-basis[:, free].T) % p
    return out


def _row_basis(mat, p):
    """Reduced-echelon basis of the row space, built chunk by chunk: rref a
    block of rows, knock its span out of the rest (in place, 2**16 entries
    at a time, so no temporary grows with the rows), repeat.  Far faster
    than one rref when rows vastly outnumber columns."""
    a = _residues(mat, p)
    ncols = a.shape[1]
    basis = np.zeros((0, ncols), dtype=a.dtype)
    pivots: list[int] = []
    while len(a):
        if pivots:
            for rows in np.array_split(a, -(-a.size // 2**16)):
                rows -= _matmul(rows[:, pivots], basis, p)
                rows %= p
            a = a[a.any(axis=1)]
            if not len(a):
                break
        chunk, a = a[:ncols], a[ncols:]
        rr, pivots = _rref(np.concatenate((basis, chunk)), p)
        basis = rr[: len(pivots)]
        if len(pivots) == ncols:
            break
    return basis, pivots


def _rank(mat, p):
    return len(_row_basis(mat, p)[0])


def _inverse(x, p):
    """Elementwise x**(p-2) mod p: the inverse of each nonzero entry."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _batched_charpoly(h, p):
    """Characteristic polynomials of a batch of matrices mod p: input
    (B, n, n), output ascending coefficients (B, n+1) of det(xI - A)."""
    h = _residues(h, p)
    bsz, n, _ = h.shape
    bi = np.arange(bsz)
    # modular reduction of the whole batch is the dominant cost, so defer
    # it: track a bound on entry magnitude and reduce only when the next
    # update could pass 2**62
    growth = p + n * (p - 1)
    limit = (1 << 62) // max(n * (p - 1) * p, 1)
    bound = p - 1
    for c in range(n - 2):
        if bound > limit:
            h %= p
            bound = p - 1
        h[:, c + 1 :, c] %= p  # pivot column must be canonical
        colv = h[:, c + 1 :, c]
        piv = c + 1 + np.argmax(colv != 0, axis=1)
        tmp = h[bi, c + 1, :].copy()
        h[bi, c + 1, :] = h[bi, piv, :]
        h[bi, piv, :] = tmp
        tmp = h[bi, :, c + 1].copy()
        h[bi, :, c + 1] = h[bi, :, piv]
        h[bi, :, piv] = tmp
        # a zero pivot leaves a zero column below it, so its f is zero
        f = h[:, c + 2 :, c] * _inverse(h[:, c + 1, c], p)[:, None] % p
        h[:, c + 2 :, :] -= f[:, :, None] * h[:, c + 1 : c + 2, :]
        h[:, :, c + 1] += np.matmul(h[:, :, c + 2 :], f[:, :, None])[:, :, 0]
        bound *= growth
    h %= p
    # leading-principal-minor recurrence for Hessenberg matrices; the sum
    # over lower minors is one batched matmul per k
    polys = np.zeros((bsz, n + 1, n + 1), dtype=h.dtype)
    polys[:, 0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[:, k - 1, :]
        term = np.zeros((bsz, n + 1), dtype=h.dtype)
        term[:, 1:] = prev[:, :-1]
        term = (term - h[:, k - 1, k - 1][:, None] * prev) % p
        coeff = np.ones(bsz, dtype=h.dtype)
        factors = []
        for mm in range(1, k):
            coeff = coeff * h[:, k - mm, k - mm - 1] % p
            if not coeff.any():
                break
            factors.append(coeff * h[:, k - mm - 1, k - 1] % p)
        if factors:
            fa = np.stack(factors, axis=1)
            idx = np.arange(k - 2, k - 2 - len(factors), -1)
            low = _matmul(fa[:, None, :], polys[:, idx, :], p)[:, 0]
            term = (term - low) % p
        polys[:, k, :] = term
    return polys[:, n, :]


def _nilpotent(m, p):
    """Which matrices of the stack m (B, s, s) are nilpotent mod p: M^s
    vanishes, which ceil(log2 s) squarings decide.  A matrix is dropped
    as soon as its power is zero, so only the others are squared on."""
    b, s = len(m), m.shape[-1]
    idx = np.arange(b)
    e = 1  # m holds the e-th powers
    while True:
        nz = m.reshape(len(m), s * s).any(axis=1)
        m, idx = m[nz], idx[nz]
        if e >= s or not len(idx):
            break
        m = _matmul(m, m, p)
        e *= 2
    out = np.ones(b, dtype=bool)
    out[idx] = False
    return out


def _poly_mul_batch(a, b, p):
    bsz, la = a.shape
    lb = b.shape[1]
    out = np.zeros((bsz, la + lb - 1), dtype=np.result_type(a, b))
    for i in range(la):
        out[:, i : i + lb] = (out[:, i : i + lb] + a[:, i : i + 1] * b) % p
    return out


# ---------------------------------------------------------------------------
# Algebras over F_p


class _Alg:
    """An algebra over F_p (or Z/p**2, for products only) in coordinate
    form: e1[k] * e2[k] has the coefficient coef[k] at tgt[k], summed over
    k.  Each of the blocks is a set of basis indices that left
    multiplication maps into itself (the columns of a flattened order; the
    whole basis of a quotient)."""

    def __init__(self, p, n, e1, e2, tgt, coef, blocks):
        self.p, self.n = p, n
        self.e1, self.e2, self.tgt, self.coef = e1, e2, tgt, coef
        self.blocks = blocks
        self.dtype = _dtype(p)

    @classmethod
    def of(cls, A: StructureConstantOrder) -> _Alg:
        return cls(A.place.residue_char, A.dim, *A.residue_products, A.blocks)

    @cached_property
    def radical(self):
        """Reduced-echelon basis of the radical, certified (see
        radical_mod_m), and its two annihilators (see _certify)."""
        basis, pivots = _row_basis(_radical_chain(self), self.p)
        annihilators = _certify(self, basis, pivots)
        if 0 < len(basis) < self.n and len(_radical_chain(_quotient(self, basis, pivots))):
            raise OracleError("radical certification failed: quotient has a radical")
        return basis, annihilators

    @cached_property
    def by_target(self):
        """The structure constants grouped by target, as padded (n, w)
        tables e1, e2, coef: row t lists the pairs with e1 * e2 having a
        coefficient at e_t, w the most any target has.  A padding slot
        has coefficient 0."""
        counts = np.bincount(self.tgt, minlength=self.n)
        order = np.argsort(self.tgt, kind="stable")
        rows = self.tgt[order]
        slots = np.arange(len(order)) - (np.cumsum(counts) - counts)[rows]
        tables = [np.zeros((self.n, int(counts.max(initial=0))), dtype=np.intp) for _ in range(2)]
        tables.append(np.zeros(tables[0].shape, dtype=self.dtype))
        for table, values in zip(tables, (self.e1, self.e2, self.coef)):
            table[rows, slots] = values[order]
        return tables

    def products(self, u, v):
        """All products u_k * v_l, as rows indexed by (k, l): a transposed
        view of the batched result, whose .T reshapes to [t, k, l] without
        a copy.

        Coordinate t of u_k * v_l sums coef * u_k[e1] * v_l[e2] over row t
        of by_target, so all of them are one batched product of (n, d_u, w)
        by (n, w, d_v) stacks.  That is the sum the dense left
        multiplication tensor gives, less its zero terms: padding slots
        have coefficient 0, so no coordinate can change."""
        e1, e2, coef = self.by_target
        left = u[:, e1] * coef % self.p  # (d_u, n, w)
        right = v[:, e2]  # (d_v, n, w)
        out = _matmul(left.transpose(1, 0, 2), right.transpose(1, 2, 0), self.p)  # (n, d_u, d_v)
        return out.reshape(self.n, -1).T

    def trace_matrix(self):
        p, n = self.p, self.n
        trv = np.zeros(n, dtype=self.dtype)
        diag = self.tgt == self.e2
        np.add.at(trv, self.e1[diag], self.coef[diag])
        trv %= p
        tf = np.zeros((n, n), dtype=self.dtype)
        np.add.at(tf, (self.e1, self.e2), self.coef * trv[self.tgt])
        return tf % p

    @cached_property
    def block_maps(self):
        """Per block of size s, the (n, s*s) matrix taking z to left
        multiplication by z on that block."""
        maps = []
        for col in self.blocks:
            s = len(col)
            pos = np.full(self.n, -1)
            pos[col] = np.arange(s)
            inside = pos[self.e2] >= 0
            tc = np.zeros((self.n, s * s), dtype=self.dtype)
            np.add.at(
                tc,
                (self.e1[inside], pos[self.tgt[inside]] * s + pos[self.e2[inside]]),
                self.coef[inside],
            )
            maps.append((s, tc % self.p))
        return maps

    def pair_coeffs(self, v):
        """Full characteristic polynomials of left multiplication by the
        products v_k * v_l, for k <= l, via the block splitting of the
        regular representation.

        Left multiplication is block-diagonal over block_maps, so its
        characteristic polynomial is the product of the blocks' and is
        x^n exactly when every block is nilpotent.  Such pairs (the zero
        products, and most others when v spans little more than the
        radical) keep the row x^n without a Hessenberg reduction; the
        screen decides nilpotency exactly, so no coefficient can change.
        One block's matrices at a time are built and screened."""
        p, n = self.p, self.n
        d = len(v)
        z = self.products(v, v).reshape(d, d, n)
        ku, lu = np.triu_indices(d)
        zall = z[ku, lu]  # (P, n)
        live = np.flatnonzero(zall.any(axis=1))
        zp = zall[live]
        # per block: the live pairs not nilpotent there, and their matrices
        hot, survive = [], np.zeros(len(zp), dtype=bool)
        for s, tc in self.block_maps:
            m = _matmul(zp, tc, p).reshape(len(zp), s, s)
            keep = ~_nilpotent(m, p)
            survive |= keep
            hot.append((s, keep, m[keep]))
        part = np.ones((int(survive.sum()), 1), dtype=self.dtype)
        for s, keep, m in hot:
            if keep.any():
                # x^s on the survivors nilpotent in this block
                cp = np.zeros((len(zp), s + 1), dtype=self.dtype)
                cp[:, s] = 1
                cp[keep] = _batched_charpoly(m, p)
                part = _poly_mul_batch(cp[survive], part, p)
        coeffs = np.zeros((len(ku), n + 1), dtype=self.dtype)
        coeffs[:, n] = 1
        # blocks nilpotent on every survivor only shift its coefficients up
        coeffs[live[survive], n + 1 - part.shape[1] :] = part
        return coeffs, (ku, lu)


def _radical_chain(alg: _Alg):
    p, n = alg.p, alg.n
    v = _nullspace(alg.trace_matrix().T, p)
    level = 1
    cache = None
    while p**level <= n and len(v):
        if cache is None:
            cache = alg.pair_coeffs(v)
        coeffs, (ku, lu) = cache
        d = len(v)
        m = np.zeros((d, d), dtype=alg.dtype)
        cidx = n - p**level
        m[ku, lu] = coeffs[:, cidx]
        m[lu, ku] = coeffs[:, cidx]
        ns = _nullspace(m, p)
        if len(ns) < d:
            v = _matmul(ns, v, p)
            cache = None
        level += 1
    return v


def _certify(alg: _Alg, basis, pivots):
    """Check that the span J of a reduced-echelon basis is a nilpotent
    ideal, or raise OracleError; return the row bases of its right and
    left annihilators, x with J*x = 0 and x with x*J = 0.

    x lies in J exactly when x @ dual == 0, for the n - d functionals
    x[free] - x[pivots] @ basis[:, free] (the basis is the identity at its
    pivots).  The ideal check applies them to J*B and B*J, whose products
    r_k * e_l and e_l * r_k, read as rows (t, k) and columns l, are also
    the annihilators' equations; one side's d*n by n array is dropped
    before the next is built.  Nilpotency is certified by squaring:
    J^(2k) = J^k * J^k, so J, J^2, J^4, ... must shrink strictly to 0 (a
    nilpotent J^k != 0 never equals J^(2k))."""
    p, n = alg.p, alg.n
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    eye = np.eye(n, dtype=alg.dtype)
    dual = eye[:, free]
    dual[pivots] = -basis[:, free] % p
    annihilators = []
    for u, v in ((basis, eye), (eye, basis)):
        prods = alg.products(u, v)
        if _matmul(prods, dual, p).any():
            raise OracleError("radical certification failed: not an ideal")
        prods = prods.T.reshape(n, len(u), len(v))  # [t, k, l]: u_k * v_l at e_t
        system = (prods if v is eye else prods.transpose(0, 2, 1)).reshape(-1, n)
        del prods
        annihilators.append(_nullspace(system, p))
        del system  # not to be held through the next side or the squaring
    s = basis
    while len(s):
        nxt = _row_basis(alg.products(s, s), p)[0]
        if len(nxt) >= len(s):
            raise OracleError("radical certification failed: not nilpotent")
        s = nxt
    return annihilators


def _quotient(alg: _Alg, basis, pivots) -> _Alg:
    """The quotient by the span of a reduced-echelon basis."""
    p, n = alg.p, alg.n
    comp = [c for c in range(n) if c not in pivots]
    q = len(comp)
    # proj[t] = the image of e_t in the basis of complement indices
    proj = np.zeros((n, q), dtype=alg.dtype)
    proj[comp, np.arange(q)] = 1
    proj[pivots] = (-basis[:, comp]) % p
    cidx = np.full(n, -1)
    cidx[comp] = np.arange(q)
    keep = (cidx[alg.e1] >= 0) & (cidx[alg.e2] >= 0)
    dense = np.zeros((q, q, q), dtype=alg.dtype)
    np.add.at(
        dense,
        (cidx[alg.e1[keep]], cidx[alg.e2[keep]]),
        alg.coef[keep][:, None] * proj[alg.tgt[keep]],
    )
    dense %= p
    f, g, t = np.nonzero(dense)
    return _Alg(p, q, f, g, t, dense[f, g, t], [list(range(q))])


# ---------------------------------------------------------------------------
# Public operations


def radical_mod_m(A: StructureConstantOrder):
    """Basis of the Jacobson radical of A/mA over F_p (over the doubled
    basis at an inert place), certified by the ideal property, by
    nilpotency (squaring, see _certify), and by a zero re-run on the
    quotient algebra.  Both chains screen out nilpotent pair products
    before any characteristic polynomial (see _Alg.pair_coeffs)."""
    return tuple(map(tuple, A.residue_algebra.radical[0].tolist()))


def hereditary_oracle(A: StructureConstantOrder) -> bool:
    """Invertibility of the radical J of the completed order: J times its
    right dual spans the order, and the left dual times J does too.  The
    duals are the annihilators _certify returned; r*b and b*r to first
    order in pi come from _Alg.products over the lo (mod p**2) and hi
    (mod p) digits of w_products."""
    if not radical_mod_m(A):
        return True  # J = mA, always invertible
    # what radical_mod_m computed: J*rann and lann*J lie in mA
    alg = A.residue_algebra
    rad, (rann, lann) = alg.radical
    if len(rann) == 0 or len(lann) == 0:
        return False
    p, n = alg.p, alg.n
    e1, e2, tgt, lo, hi = A.w_products
    low, high = (_Alg(mod, n, e1, e2, tgt, c, A.blocks) for mod, c in ((p * p, lo), (p, hi)))
    _, p_is_uniformizer = digit_map(A.place)
    eye = np.eye(n, dtype=alg.dtype)
    # rad * b with A * b for b in the right dual, then b * rad with b * A
    for pair, span in (((rad, rann), (eye, rann)), ((lann, rad), (lann, eye))):
        # the divided products (r * b)/pi or (b * r)/pi mod m
        rl = low.products(*pair)
        if (rl % p).any():
            raise OracleError("value not divisible by the uniformizer")
        carry = rl // p if p_is_uniformizer else 0
        digits = (carry + high.products(*pair)) % p
        if _rank(np.vstack([rad, alg.products(*span), digits]), p) != n:
            return False
    return True


def oracle_report(order: GradedOrder, m: MaximalIdeal) -> dict:
    """Cross-validation record: oracle verdict vs the structural engine."""
    A = flatten(order, m)
    oracle = hereditary_oracle(A)
    engine = main_hereditary_verdict(order.localize(m)).hereditary
    return {
        "place": str(m),
        "rank": A.rank,
        "oracle": oracle,
        "engine": engine,
        "agree": oracle == engine,
    }
