"""Brute-force hereditariness oracle for graded orders at one place.

The graded order is flattened to an explicit structure-constant algebra
over the completed base ring: basis elements are matrix units scaled by
uniformizer powers, one per component entry, tagged with the grade.  The
radical of the reduction mod m is found by the characteristic-polynomial
coefficient chain (valid in small characteristic, where the plain trace
form fails), certified as an ideal, as nilpotent and by a re-run on the
quotient.  The chain computes Hessenberg characteristic polynomials only
for the pair products whose left multiplication is not nilpotent, which
a few squarings decide; a nilpotent one has x^n, so the screen changes
no coefficient.  Screen and polynomials run once per line: products that
are scalar multiples of each other share them, rescaled.
Hereditariness is then radical invertibility, decided by linear algebra
over the residue field at the A/mA and m^-1*A/A levels, with the rank
taken in A/J.

Left multiplication keeps each column of matrix units (e_ij * e_jk =
e_ik) and right multiplication each row, so the certificate reads the
radical J only through the small matrices of multiplication by its basis
on those blocks.  They give the ideal check, and the annihilators as
direct sums of block kernels, solved in batches of equal-size blocks.
Nilpotency needs no powers of J: an ideal spanned by nilpotent elements
is nilpotent (see _certify), so it is checked on the basis alone.

Two kernels work on indices rather than dense arrays, each computing
exactly what the dense form would.  Flattening numbers each distinct
scalar and checks associativity on those numbers, multiplying each
distinct pair once; scalars are equal exactly when their normal forms
are, so numbers compare as the scalars do.  Every product of two lists
of algebra elements comes from one kernel, _Alg.products, which sums
over the structure constants grouped by target: the same nonzero terms
as the dense left multiplication matrix.  The radical chain's pair
products and the invertibility test use it; the block matrices of
multiplication come from one scatter per side (_Alg.block_groups).

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
    k * 4**s <= 2**53 so that each limb product is exact in float64.  The
    limb products of one shift i+j are summed in int64 and the 2*count-1
    sums recombined in Python integers (the exact modular products of
    FFLAS-FFPACK).  That int64 sum is safe while count <= 1024; the moduli
    here are below 2**128 (p**2 for p <= base_rings.MAX_NORM), so count
    is at most 8 for any k below 2**20."""
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

    la, lb = limbs(a), limbs(b)
    out = 0
    for shift in range(2 * count - 1):
        # the limb products of one shift sum exactly in int64: each is
        # below 2**53, and there are at most count of them
        part = sum(
            np.matmul(la[i], lb[shift - i]).astype(np.int64)
            for i in range(max(0, shift - count + 1), min(shift, count - 1) + 1)
        )
        out = out + part.astype(object) * pow(2, s * shift, mod)
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
    rows: list  # rows[r] = sorted basis indices in absolute row r

    @property
    def degree(self) -> int:
        """F_p-coordinates per basis element: 2 at an inert place."""
        return self.place.residue_degree

    @property
    def dim(self) -> int:
        """The rank over F_p that the kernels see."""
        return self.rank * self.degree

    def _over_fp(self, sets: list) -> list:
        """Sets of basis indices over F_p: basis element k is deg*k + a,
        standing for i**a times the order's basis element k."""
        deg = self.degree
        return [[deg * k + a for k in ks for a in range(deg)] for ks in sets]

    @property
    def blocks(self) -> list:
        """The columns over F_p, which left multiplication preserves."""
        return self._over_fp(self.columns)

    @property
    def row_blocks(self) -> list:
        """The rows over F_p, which right multiplication preserves."""
        return self._over_fp(self.rows)

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
    lines = [[] for _ in range(offs[-1])]
    for k, (g, b, i, j) in enumerate(labels):
        comp = local.components[g]
        columns[offs[comp.perm[b]] + j].append(k)
        lines[offs[b] + i].append(k)
    _check_associative(n_total, np.array(rows, dtype=np.intp).reshape(-1, 4), list(numbers))
    return StructureConstantOrder(m, n_total, labels, products, columns, lines)


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


def _complement(basis, pivots, p):
    """The (n, n - d) matrix C of the n - d functionals x[f] - x[pivots] @
    basis[:, f], one per free column f of a reduced-echelon basis (d, n):
    x @ C == 0 exactly when x lies in the row span, the rows of C.T span
    the right kernel, and rank([basis; S]) == d + rank(S @ C)."""
    free = np.ones(basis.shape[1], dtype=bool)
    free[pivots] = False
    out = np.eye(basis.shape[1], dtype=basis.dtype)[:, free]
    out[pivots] = -basis[:, free] % p
    return out


def _nullspace(mat, p):
    """Basis of the right kernel, as row vectors."""
    return _complement(*_row_basis(mat, p), p).T


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


def _batched_echelon(a, p):
    """Reduced echelon forms of a stack (B, r, s) mod p, pivot-indexed:
    row c of member b of the (B, s, s) result E is the basis row of b's
    row space with pivot c, or zero where c is not a pivot, so E's
    diagonal is 1 at the pivots and 0 elsewhere.  The kernel of member b
    is then spanned by the columns of I - E at its free columns.

    The rows go in chunks of about 2**16 entries over the stack, below
    E's rows.  A chunk is eliminated one column at a time over the whole
    stack: an argmax finds each member's pivot row, a Fermat inverse
    scales it, and one update clears the column from the chunk and from
    E.  The remaining rows are then reduced by E in one product and their
    zero rows dropped, so a later chunk holds only rows outside the span
    found so far."""
    a = _residues(a, p)
    bsz, _, s = a.shape
    bi = np.arange(bsz)
    ech = np.zeros((bsz, s, s), dtype=a.dtype)
    take = max(s, 2**16 // max(bsz * s, 1))
    while a.shape[1]:
        work = np.concatenate((ech, a[:, :take]), axis=1)
        a = a[:, take:]
        for c in range(s):
            piv = s + np.argmax(work[:, s:, c] != 0, axis=1)
            lead = work[bi, piv, c]
            if not lead.any():
                continue
            # a member with no pivot here gets a zero row (at p = 2 the
            # inverse of 0 reads 1)
            row = work[bi, piv] * (_inverse(lead, p) * (lead != 0))[:, None] % p
            work -= work[:, :, c, None] * row[:, None]
            work %= p
            work[:, c] += row
        ech = work[:, :s]
        if a.shape[1]:
            a = (a - _matmul(a, ech, p)) % p
            nonzero = a.any(axis=2)
            keep = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max(initial=0)]
            a = a[bi[:, None], keep]
    return ech


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
    multiplication maps into itself, and each of the row blocks one that
    right multiplication maps into itself: the columns and the rows of a
    flattened order, since e_ij * e_jk = e_ik.  Either defaults to the
    whole basis, as for a quotient."""

    def __init__(self, p, n, e1, e2, tgt, coef, blocks, row_blocks=None):
        self.p, self.n = p, n
        self.e1, self.e2, self.tgt, self.coef = e1, e2, tgt, coef
        self.blocks = blocks
        self.row_blocks = row_blocks or [list(range(n))]
        self.dtype = _dtype(p)

    @classmethod
    def of(cls, A: StructureConstantOrder) -> _Alg:
        return cls(A.place.residue_char, A.dim, *A.residue_products, A.blocks, A.row_blocks)

    @property
    def opposite(self) -> _Alg:
        """The opposite algebra, x o y = y * x: its left multiplication is
        right multiplication here, which keeps each row block.  Built
        afresh, so that its tables go with it."""
        return _Alg(self.p, self.n, self.e2, self.e1, self.tgt, self.coef, self.row_blocks, self.blocks)

    @cached_property
    def radical_echelon(self):
        """The chain's reduced-echelon basis and pivots, uncertified."""
        return _row_basis(_radical_chain(self), self.p)

    @cached_property
    def radical(self):
        """Reduced-echelon basis of the radical, certified (see
        radical_mod_m), and its two annihilators (see _certify)."""
        basis, pivots = self.radical_echelon
        annihilators = _certify(self, basis, pivots)
        if 0 < len(basis) < self.n and len(_radical_chain(_quotient(self, basis, pivots))):
            raise OracleError("radical certification failed: quotient has a radical")
        return basis, annihilators

    @cached_property
    def by_target(self):
        """The structure constants grouped by target, as padded (n, w)
        tables e1, e2: row t lists the pairs with e1 * e2 having a
        coefficient at e_t, w the most any target has.  Constant k sits in
        row tgt[k], column slot[k]; slot is returned as well, for the
        coefficient table."""
        counts = np.bincount(self.tgt, minlength=self.n)
        order = np.argsort(self.tgt, kind="stable")
        slot = np.empty(len(order), dtype=np.intp)
        slot[order] = np.arange(len(order)) - (np.cumsum(counts) - counts)[self.tgt[order]]
        tables = [np.zeros((self.n, int(counts.max(initial=0))), dtype=np.intp) for _ in range(2)]
        for table, values in zip(tables, (self.e1, self.e2)):
            table[self.tgt, slot] = values
        return (*tables, slot)

    @cached_property
    def coef_table(self):
        """The coefficients in the layout of by_target; a padding slot has
        coefficient 0."""
        e1, _, slot = self.by_target
        table = np.zeros(e1.shape, dtype=self.dtype)
        table[self.tgt, slot] = self.coef
        return table

    def products(self, u, v):
        """All products u_k * v_l, as rows indexed by (k, l): a transposed
        view of the batched result, whose .T reshapes to [t, k, l] without
        a copy.

        Coordinate t of u_k * v_l sums coef * u_k[e1] * v_l[e2] over row t
        of by_target, so all of them are one batched product of (n, d_u, w)
        by (n, w, d_v) stacks.  That is the sum the dense left
        multiplication tensor gives, less its zero terms: padding slots
        have coefficient 0, so no coordinate can change."""
        e1, e2, _ = self.by_target
        left = u[:, e1] * self.coef_table % self.p  # (d_u, n, w)
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
    def block_groups(self):
        """Left multiplication on every block, the blocks of one size
        together: the (n, S) matrix taking z to the s*s matrices of left
        multiplication by z on the blocks, S the sum of the squared block
        sizes, and per size s the (B, s) basis indices of its B blocks and
        the first of their B*s*s columns.  Entry t*s + l of a block's
        matrix is coordinate col[t] of z * e_col[l], for the block's basis
        indices col.  Each structure constant lies in the block of e2,
        which holds its target as well, since the blocks are kept."""
        sizes = [len(col) for col in self.blocks]
        groups, first, start = [], [0] * len(sizes), 0
        for s in sorted(set(sizes)):
            members = [k for k, size in enumerate(sizes) if size == s]
            groups.append((s, np.array([self.blocks[k] for k in members], dtype=np.intp), start))
            for k in members:
                first[k], start = start, start + s * s
        block = np.empty(self.n, dtype=np.intp)
        pos = np.empty(self.n, dtype=np.intp)
        for k, col in enumerate(self.blocks):
            block[col], pos[col] = k, np.arange(len(col))
        b = block[self.e2]
        maps = np.zeros((self.n, start), dtype=self.dtype)
        np.add.at(maps, (self.e1, np.array(first)[b] + pos[self.tgt] * np.array(sizes)[b] + pos[self.e2]), self.coef)
        return maps % self.p, groups

    def pair_coeffs(self, v):
        """Full characteristic polynomials of left multiplication by the
        products v_k * v_l, for k <= l, via the block splitting of the
        regular representation.

        Left multiplication is block-diagonal over the blocks, so its
        characteristic polynomial is the product of the blocks' and is
        x^n exactly when every block is nilpotent.  Such pairs (the zero
        products, and most others when v spans little more than the
        radical) keep the row x^n without a Hessenberg reduction; the
        screen decides nilpotency exactly, so no coefficient can change.
        The products are made a few rows k at a time, for l >= k only,
        and only the nonzero ones kept, so that the d*d products never
        exist at once.  One block's matrices at a time are built and
        screened.  All of this runs once per line: a product lam*z of the
        line's representative z gets coefficient i of z's polynomial times
        lam**(n-i), and is nilpotent exactly when z is."""
        p, n = self.p, self.n
        d = len(v)
        ku, lu = np.triu_indices(d)
        step = max(1, 2**18 // (d * n))
        zp, live = [], []
        for a in range(0, d, step):
            rows, cols = np.triu_indices(min(step, d - a), 0, d - a)
            z = self.products(v[a : a + step], v[a:]).reshape(-1, d - a, n)[rows, cols]
            nonzero = np.flatnonzero(z.any(axis=1))
            zp.append(z[nonzero])
            live.append(a * d - a * (a - 1) // 2 + nonzero)  # pairs before row a
        zp, live = np.concatenate(zp), np.concatenate(live)
        # the representative of a line is the first product divided by its
        # leading entry lam; quotients compare by value (bytes, or the
        # Python ints of an object row)
        lam = zp[np.arange(len(zp)), np.argmax(zp != 0, axis=1)]
        norm = zp * _inverse(lam, p)[:, None] % p
        keys = map(tuple, norm.tolist()) if norm.dtype == object else map(bytes, norm)
        index: dict = {}
        head = np.array([index.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
        first, line = np.unique(head, return_inverse=True)
        z = norm[first]
        # per block: the representatives not nilpotent there, and their matrices
        maps, groups = self.block_groups
        hot, survive = [], np.zeros(len(z), dtype=bool)
        for s, cols, start in groups:
            for j in range(start, start + cols.size * s, s * s):
                m = _matmul(z, maps[:, j : j + s * s], p).reshape(len(z), s, s)
                keep = ~_nilpotent(m, p)
                survive |= keep
                hot.append((s, keep, m[keep]))
        part = np.ones((int(survive.sum()), 1), dtype=self.dtype)
        for s, keep, m in hot:
            if keep.any():
                # x^s on the survivors nilpotent in this block
                cp = np.zeros((len(z), s + 1), dtype=self.dtype)
                cp[:, s] = 1
                cp[keep] = _batched_charpoly(m, p)
                part = _poly_mul_batch(cp[survive], part, p)
        # det(xI - lam*L) = lam**n * det((x/lam)I - L), on each survivor's line
        rows = np.flatnonzero(survive[line])
        w = part.shape[1]
        scale = np.ones((len(rows), w), dtype=self.dtype)
        for i in range(w - 2, -1, -1):
            scale[:, i] = scale[:, i + 1] * lam[rows] % p
        coeffs = np.zeros((len(ku), n + 1), dtype=self.dtype)
        coeffs[:, n] = 1
        # blocks nilpotent on every survivor only shift its coefficients up
        coeffs[live[rows], n + 1 - w :] = part[(np.cumsum(survive) - 1)[line[rows]]] * scale % p
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

    J is read only through left and right multiplication by its basis
    r_k, on the blocks those maps keep: left multiplication maps each
    column block into itself (e_ij * e_jk = e_ik), and right
    multiplication, the left multiplication of alg.opposite, each row
    block.  Per side one product of the basis by block_groups gives every
    block's s*s matrices, in stacks of equal-size blocks.

    x lies in J exactly when x @ dual == 0, dual the complement matrix of
    the basis (see _complement).  The ideal check applies the block's rows
    of dual to the block coordinates of r_k * e_l and of e_l * r_k.

    An ideal spanned by nilpotent elements is nilpotent, so nilpotency is
    checked on the basis alone (by _nilpotent, on its left
    multiplication, which is nilpotent exactly when r_k is).  Proof: the
    image of J in the semisimple A/rad A is an ideal, so a sum of simple
    components M_m(F_q).  The trace of a component's matrix is linear and
    vanishes on nilpotent matrices, so on the image; but it is 1 at the
    unit e_11 of any component in the image.  So the image is 0 and J
    lies in rad A.

    Since the blocks of a side partition the basis and each is kept, J*x
    = 0 splits into J * x_block = 0 per column block: the right
    annihilator is the direct sum of the column blocks' kernels, and the
    left one that of the row blocks'.  _batched_echelon solves a stack of
    them at once; each basis vector is 1 at its free index, so ordered by
    it the rows are the reduced nullspace basis of the whole system."""
    p, n, d = alg.p, alg.n, len(basis)
    dual = _complement(basis, pivots, p)
    annihilators, nilpotent = [], True
    for side in (alg, alg.opposite):
        maps, groups = side.block_groups
        image = _matmul(basis, maps, p)
        heads, rows = [], []
        for s, cols, start in groups:
            # m[b, k, t, l]: coordinate cols[b, t] of r_k * e_cols[b, l]
            m = image[:, start : start + cols.size * s].reshape(d, len(cols), s, s).transpose(1, 0, 2, 3)
            if _matmul(m.transpose(0, 1, 3, 2).reshape(len(cols), d * s, s), dual[cols], p).any():
                raise OracleError("radical certification failed: not an ideal")
            if side is alg:
                nilpotent = nilpotent and _nilpotent(m.reshape(-1, s, s), p).all()
            ech = _batched_echelon(m.reshape(len(cols), d * s, s), p)
            b, f = np.nonzero(np.diagonal(ech, axis1=1, axis2=2) == 0)
            vec = -ech[b, :, f] % p  # column f of I - E, 1 put in below
            vec[np.arange(len(f)), f] = 1
            # as n-vectors: each group's kernel vectors have its own size
            row = np.zeros((len(f), n), dtype=alg.dtype)
            row[np.arange(len(f))[:, None], cols[b]] = vec
            heads.append(cols[b, f])
            rows.append(row)
        annihilators.append(np.vstack(rows)[np.argsort(np.concatenate(heads))])
    if not nilpotent:
        raise OracleError("radical certification failed: not nilpotent")
    return annihilators


def _quotient(alg: _Alg, basis, pivots) -> _Alg:
    """The quotient by the span of a reduced-echelon basis."""
    p, n = alg.p, alg.n
    # proj[t] = the image of e_t in the basis of complement indices
    proj = _complement(basis, pivots, p)
    q = proj.shape[1]
    cidx = np.full(n, -1)
    cidx[np.setdiff1d(np.arange(n), pivots)] = np.arange(q)
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
    nilpotency of its basis (see _certify), and by a zero re-run on the
    quotient algebra.  Both chains screen out nilpotent pair products
    before any characteristic polynomial (see _Alg.pair_coeffs)."""
    return tuple(map(tuple, A.residue_algebra.radical[0].tolist()))


def hereditary_oracle(A: StructureConstantOrder) -> bool:
    """Invertibility of the radical J of the completed order: J times its
    right dual spans the order, and the left dual times J does too.  The
    duals are the annihilators _certify returned; r*b and b*r to first
    order in pi come from _Alg.products over the lo (mod p**2) and hi
    (mod p) digits of w_products.  The rank is taken in A/J: since J's
    basis is in reduced echelon form, rank([J; S]) = d + rank(S @ C) for
    C its complement matrix (see _complement): n - d columns, not n."""
    if not radical_mod_m(A):
        return True  # J = mA, always invertible
    # what radical_mod_m computed: J*rann and lann*J lie in mA
    alg = A.residue_algebra
    rad, (rann, lann) = alg.radical
    if len(rann) == 0 or len(lann) == 0:
        return False
    p, n = alg.p, alg.n
    dual = _complement(rad, alg.radical_echelon[1], p)
    e1, e2, tgt, lo, hi = A.w_products
    low = _Alg(p * p, n, e1, e2, tgt, lo, A.blocks)
    high = _Alg(p, n, e1, e2, tgt, hi, A.blocks)
    high.by_target = low.by_target  # same pairs and targets
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
        if _rank(_matmul(np.vstack([alg.products(*span), digits]), dual, p), p) != n - len(rad):
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
