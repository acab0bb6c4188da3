"""Brute-force hereditariness oracle for graded orders at one place.

The graded order is flattened to an explicit structure-constant algebra
over the localized base ring: basis elements are matrix units scaled by
uniformizer powers, one per component entry, tagged with the grade.  The
radical of the reduction mod m is found by the characteristic-polynomial
coefficient chain (valid in small characteristic, where the plain trace
form fails), certified by nilpotency and by a re-run on the quotient.
Hereditariness is then radical invertibility, decided by linear algebra
over the residue field at the A/mA and m^-1*A/A levels.

Everything here is independent of the structural verdict engine: only
the multiplication table is shared input.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dcfield
from functools import cached_property

import numpy as np

from .base_rings import (
    RING_Z,
    RING_ZI,
    BaseRing,
    GaussianInt,
    KElem,
    MaximalIdeal,
    RingError,
    element_valuation,
)
from .gf import Field, PrimeField, QuadField, nullspace, rank, residue_map
from .graded import GradedOrder
from .groups import pmul

RANK_CAP = 200
# ranks at or below this use the exact pure-python path; above it, numpy
_NP_MIN_RANK = 12
# the float64 matmuls in _np_row_basis and _np_certify sum up to rank
# products of residues below p; they are exact only below 2**53
_NP_EXACT_BOUND = 2**53


class OracleError(ValueError):
    pass


class RankCapExceeded(OracleError):
    pass


class AssociativityFailure(OracleError):
    pass


# ---------------------------------------------------------------------------
# Arithmetic in R/m^2 (two uniformizer digits), for the m^-1*A/A level


class _WInt:
    """R/m^2 as integers mod p^2: base Z, or Z[i] at a split prime with
    i mapped to a lifted square root of -1."""

    def __init__(self, m: MaximalIdeal):
        self.m = m
        self.p = m.residue_char
        self.mod = self.p * self.p
        if m.ring_kind == RING_Z:
            self.r2 = None
            self.pi_unit = 1  # pi = p
        else:
            p, g = self.p, m.generator
            r = (-g.re * pow(g.im, -1, p)) % p
            t = (((-1 - r * r) // p) * pow(2 * r, -1, p)) % p
            self.r2 = (r + p * t) % self.mod
            pival = (g.re + self.r2 * g.im) % self.mod
            if pival % p:
                raise OracleError("lifted square root of -1 misses the place")
            self.pi_unit = (pival // p) % p
        self.pi_unit_inv = pow(self.pi_unit, -1, self.p)

    def encode(self, x: KElem) -> int:
        num, den = x.as_int_pair()
        if self.m.ring_kind == RING_Z:
            k = 0
            while den % self.p == 0:
                den //= self.p
                k += 1
            a = num.re
            for _ in range(k):
                if a % self.p:
                    raise RingError("element not integral at the place")
                a //= self.p
            return a * pow(den, -1, self.mod) % self.mod
        k = element_valuation(RING_ZI, GaussianInt(den, 0), self.m)
        g = self.m.generator
        a = num
        dd = GaussianInt(den, 0)
        for _ in range(k):
            a = a.exact_div(g)
            dd = dd.exact_div(g)
        av = (a.re + self.r2 * a.im) % self.mod
        dv = (dd.re + self.r2 * dd.im) % self.mod
        return av * pow(dv, -1, self.mod) % self.mod

    def digit1(self, w: int) -> int:
        if w % self.p:
            raise OracleError("value not divisible by the uniformizer")
        return (w // self.p) * self.pi_unit_inv % self.p


class _WGauss:
    """R/m^2 as Gaussian pairs: Z[i] at an inert prime (pairs mod p^2) or
    at the ramified prime (pairs mod 2, since (1+i)^2 is an associate of
    2)."""

    def __init__(self, m: MaximalIdeal):
        self.m = m
        self.p = m.residue_char
        self.ramified = m.residue_size == m.residue_char == 2
        self.mod = 2 if self.ramified else self.p * self.p

    def encode(self, x: KElem):
        num, den = x.as_int_pair()
        k = element_valuation(RING_ZI, GaussianInt(den, 0), self.m)
        g = self.m.generator
        a = num
        dd = GaussianInt(den, 0)
        for _ in range(k):
            a = a.exact_div(g)
            dd = dd.exact_div(g)
        av = (a.re % self.mod, a.im % self.mod)
        dv = (dd.re % self.mod, dd.im % self.mod)
        return self.mul(av, self.inv(dv))

    def mul(self, x, y):
        return (
            (x[0] * y[0] - x[1] * y[1]) % self.mod,
            (x[0] * y[1] + x[1] * y[0]) % self.mod,
        )

    def inv(self, x):
        n = (x[0] * x[0] + x[1] * x[1]) % self.mod
        return self.mul((pow(n, -1, self.mod), 0), (x[0], (-x[1]) % self.mod))

    def add(self, x, y):
        return ((x[0] + y[0]) % self.mod, (x[1] + y[1]) % self.mod)

    zero = (0, 0)

    def scale(self, c, x):
        return ((c[0] * x[0] - c[1] * x[1]) % self.mod,
                (c[0] * x[1] + c[1] * x[0]) % self.mod)

    def digit0(self, w):
        if self.ramified:
            return (w[0] + w[1]) % 2
        return (w[0] % self.p, w[1] % self.p)

    def digit1(self, w):
        if self.ramified:
            if (w[0] + w[1]) % 2:
                raise OracleError("value not divisible by the uniformizer")
            return w[0] % 2
        if w[0] % self.p or w[1] % self.p:
            raise OracleError("value not divisible by the uniformizer")
        return (w[0] // self.p % self.p, w[1] // self.p % self.p)

    def lift_field(self, a):
        if self.ramified:
            return (a % 2, 0)
        return (a[0] % self.mod, a[1] % self.mod)


# ---------------------------------------------------------------------------
# Flattening


@dataclass
class StructureConstantOrder:
    """A graded order at one place as an explicit algebra: basis element
    k is labels[k] = (grade, block, row, col), representing the matrix
    unit at that component position scaled by the component's uniformizer
    power.  products maps a pair of basis indices to (target, exact unit
    scalar times uniformizer power)."""

    order: GradedOrder
    place: MaximalIdeal
    ring: BaseRing
    rank: int
    labels: list
    products: dict
    columns: list  # columns[c] = sorted basis indices in absolute column c
    field: Field = None
    red: object = None

    @cached_property
    def residue_products(self) -> dict:
        out = {}
        for key, (tgt, scal) in self.products.items():
            v = self.red(scal)
            if not self.field.is_zero(v):
                out[key] = (tgt, v)
        return out

    @cached_property
    def wring(self):
        if self.ring.kind == RING_Z:
            return _WInt(self.place)
        m = self.place
        if m.residue_size == m.residue_char != 2:
            return _WInt(m)  # split prime
        return _WGauss(m)  # inert or ramified

    @cached_property
    def w_products(self) -> dict:
        w = self.wring
        out = {}
        for key, (tgt, scal) in self.products.items():
            v = w.encode(scal)
            if v != (w.zero if isinstance(w, _WGauss) else 0):
                out[key] = (tgt, v)
        return out


def flatten(order: GradedOrder, m: MaximalIdeal) -> StructureConstantOrder:
    """Realize the completion of the graded order at m as a structure
    constant algebra; associativity is verified exhaustively."""
    if order.is_local and order.base.place != m:
        raise OracleError("graded order lives at a different place")
    local = order.localize(m)
    base = local.base
    ring = base.ring
    if ring is None:
        raise OracleError("oracle needs a base ring context")
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
    if n_total > RANK_CAP:
        raise RankCapExceeded(f"flattened rank {n_total} exceeds cap {RANK_CAP}")
    gen = KElem.from_gaussian(m.generator)
    one = KElem.of(1, 0)
    powers: dict[int, KElem] = {0: one, 1: gen}

    def gen_pow(e: int) -> KElem:
        cached = powers.get(e)
        if cached is None:
            cached = powers[e] = gen**e
        return cached

    products = {}
    for e1, (g, b, i, j) in enumerate(labels):
        comp_g = local.components[g]
        bg = comp_g.perm[b]
        x1 = comp_g.mats[b][i][j]
        for h in els:
            comp_h = local.components[h]
            gh = pmul(g, h)
            gamma = local.gamma_at(g, h)[b]
            unit_gamma = gamma == one
            comp_gh = local.components[gh]
            for j2 in range(sizes[comp_h.perm[bg]]):
                e2 = index[(h, bg, j, j2)]
                x2 = comp_h.mats[bg][j][j2]
                x3 = comp_gh.mats[b][i][j2]
                scal = gen_pow(x1 + x2 - x3)
                if not unit_gamma:
                    scal = scal * gamma
                products[(e1, e2)] = (index[(gh, b, i, j2)], scal)
    columns = [[] for _ in range(offs[-1])]
    for k, (g, b, i, j) in enumerate(labels):
        comp = local.components[g]
        columns[offs[comp.perm[b]] + j].append(k)
    # exhaustive associativity check on basis triples with nonzero chains
    by_first = {}
    for (e1, e2), val in products.items():
        by_first.setdefault(e1, []).append((e2, val))
    for (e1, e2), (t12, s12) in products.items():
        for e3, (t23, s23) in by_first.get(e2, []):
            lt, ls = products[(t12, e3)]
            rt, rs = products[(e1, t23)]
            if lt == rt and ls is rs and s12 is s23:
                continue  # interned scalars: both sides literally agree
            if lt != rt or s12 * ls != s23 * rs:
                raise AssociativityFailure(
                    f"associativity fails on basis triple ({e1},{e2},{e3})"
                )
    fld, red = residue_map(BaseRing(ring.kind), m)
    if isinstance(fld, QuadField) and n_total > 25:
        raise OracleError(
            "non-prime residue fields are supported only up to rank 25"
        )
    return StructureConstantOrder(
        local, m, ring, n_total, labels, products, columns, fld, red
    )


# ---------------------------------------------------------------------------
# Numpy mod-p linear algebra (used when the residue field is GF(p) and the
# rank is large enough to justify it)


def _np_rref(mat, p, reduced=True):
    """Row reduction mod p.  With reduced=False only rows below each pivot
    are cleared (row echelon form: enough for ranks, half the work)."""
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # rows left of c are already clear, so only columns >= c move
        lo = 0 if reduced else r + 1
        col = a[lo:, c].copy()
        if reduced:
            col[r] = 0
        a[lo:, c:] = (a[lo:, c:] - np.outer(col, a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _np_nullspace(mat, p):
    a = np.array(mat, dtype=np.int64)
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0, dtype=np.int64)
    rr, pivots = _np_rref(a, p)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-rr[r, fc]) % p
    return basis


def _np_row_basis(mat, p):
    """Reduced-echelon basis of the row space, built chunk by chunk: rref a
    block of rows, knock its span out of the rest with one matmul, repeat.
    Far faster than one rref when rows vastly outnumber columns."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2 or a.size == 0:
        ncols = a.shape[1] if a.ndim == 2 else 0
        return np.zeros((0, ncols), dtype=np.int64), []
    ncols = a.shape[1]
    basis = np.zeros((0, ncols), dtype=np.int64)
    pivots: list[int] = []
    while len(a):
        if pivots:
            red = np.matmul(
                a[:, pivots].astype(np.float64), basis.astype(np.float64)
            )
            a = (a - np.rint(red).astype(np.int64)) % p
            a = a[a.any(axis=1)]
            if not len(a):
                break
        chunk, a = a[:ncols], a[ncols:]
        rr, pivots = _np_rref(np.vstack([basis, chunk]), p)
        basis = rr[: len(pivots)]
        if len(pivots) == ncols:
            break
    return basis, pivots


def _np_rank(mat, p):
    a = np.asarray(mat)
    if a.size == 0:
        return 0
    return len(_np_row_basis(a, p)[0])


def _batched_charpoly(h, p):
    """Characteristic polynomials of a batch of matrices mod p: input
    (B, n, n), output ascending coefficients (B, n+1) of det(xI - A)."""
    h = np.array(h, dtype=np.int64) % p
    bsz, n, _ = h.shape
    inv_table = np.array([0] + [pow(k, -1, p) for k in range(1, p)], dtype=np.int64)
    bi = np.arange(bsz)
    # modular reduction of the whole batch is the dominant cost, so defer
    # it: track a bound on entry magnitude and reduce only when the next
    # update could overflow int64
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
        f = h[:, c + 2 :, c] * inv_table[h[:, c + 1, c]][:, None] % p
        h[:, c + 2 :, :] -= f[:, :, None] * h[:, c + 1 : c + 2, :]
        h[:, :, c + 1] += np.matmul(h[:, :, c + 2 :], f[:, :, None])[:, :, 0]
        bound *= growth
    h %= p
    # leading-principal-minor recurrence for Hessenberg matrices; the sum
    # over lower minors is one batched matmul per k (exact in float64 as
    # long as n * p^2 stays below 2^53)
    polys = np.zeros((bsz, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    for k in range(1, n + 1):
        prev = polys[:, k - 1, :]
        term = np.zeros((bsz, n + 1), dtype=np.int64)
        term[:, 1:] = prev[:, :-1]
        term = (term - h[:, k - 1, k - 1][:, None] * prev) % p
        coeff = np.ones(bsz, dtype=np.int64)
        factors = []
        for mm in range(1, k):
            coeff = coeff * h[:, k - mm, k - mm - 1] % p
            if not coeff.any():
                break
            factors.append(coeff * h[:, k - mm - 1, k - 1] % p)
        if factors:
            fa = np.stack(factors, axis=1).astype(np.float64)
            idx = np.arange(k - 2, k - 2 - len(factors), -1)
            ps = polys[:, idx, :].astype(np.float64)
            low = np.rint(np.matmul(fa[:, None, :], ps)[:, 0]).astype(np.int64)
            term = (term - low) % p
        polys[:, k, :] = term
    return polys[:, n, :]


def _poly_mul_batch(a, b, p):
    bsz, la = a.shape
    lb = b.shape[1]
    out = np.zeros((bsz, la + lb - 1), dtype=np.int64)
    for i in range(la):
        out[:, i : i + lb] = (out[:, i : i + lb] + a[:, i : i + 1] * b) % p
    return out


class _NpFlat:
    """Numpy view of a flattened algebra over GF(p)."""

    def __init__(self, A: StructureConstantOrder):
        self.A = A
        self.p = A.field.p
        self.N = A.rank
        items = list(A.residue_products.items())
        self.E1 = np.array([k[0] for k, _ in items], dtype=np.int64)
        self.E2 = np.array([k[1] for k, _ in items], dtype=np.int64)
        self.TGT = np.array([v[0] for _, v in items], dtype=np.int64)
        self.SF = np.array([v[1] for _, v in items], dtype=np.int64)
        self.col_tensors = []
        for col in A.columns:
            pos = {e: i for i, e in enumerate(col)}
            s = len(col)
            tc = np.zeros((self.N, s, s), dtype=np.float64)
            for (e1, e2), (tgt, sf) in A.residue_products.items():
                if e2 in pos:
                    tc[e1, pos[tgt], pos[e2]] = sf
            self.col_tensors.append(tc)

    def trace_matrix(self):
        trv = np.zeros(self.N, dtype=np.int64)
        diag = self.TGT == self.E2
        np.add.at(trv, self.E1[diag], self.SF[diag])
        trv %= self.p
        tf = np.zeros((self.N, self.N), dtype=np.int64)
        np.add.at(tf, (self.E1, self.E2), self.SF * trv[self.TGT])
        return tf % self.p

    def _pair_products(self, v):
        d = len(v)
        t1 = np.zeros((d, self.N, self.N), dtype=np.int64)
        np.add.at(t1, (slice(None), self.E2, self.TGT), v[:, self.E1] * self.SF[None, :])
        t1 %= self.p
        z = np.matmul(
            v[None, :, :].astype(np.float64), t1.astype(np.float64)
        )
        return np.rint(z).astype(np.int64) % self.p  # (d, d, N)

    def pair_coeffs(self, v):
        """Full characteristic polynomials of left multiplication by the
        products v_k * v_l, for k <= l, via the column-block splitting of
        the regular representation."""
        d = len(v)
        z = self._pair_products(v)
        ku, lu = np.triu_indices(d)
        zall = z[ku, lu]  # (P, N)
        # a zero product has charpoly x^N, whose lower coefficients all
        # vanish; skip those pairs (most of them, when v is near-standard)
        live = zall.any(axis=1)
        zp = zall[live].astype(np.float64)
        coeffs = np.zeros((len(ku), self.N + 1), dtype=np.int64)
        coeffs[:, self.N] = 1 % self.p
        part = np.ones((len(zp), 1), dtype=np.int64)
        for tc in self.col_tensors:
            s = tc.shape[1]
            if s == 0 or len(zp) == 0:
                continue
            mc = np.matmul(zp, tc.reshape(self.N, s * s)).reshape(-1, s, s)
            mc = np.rint(mc).astype(np.int64) % self.p
            cp = _batched_charpoly(mc, self.p)
            part = _poly_mul_batch(part, cp, self.p)
        if len(zp):
            coeffs[live, : part.shape[1]] = part
        return coeffs, (ku, lu)

    def products(self, u, v):
        """All pairwise products of rows of u with rows of v."""
        t1 = np.zeros((len(u), self.N, self.N), dtype=np.int64)
        np.add.at(t1, (slice(None), self.E2, self.TGT), u[:, self.E1] * self.SF[None, :])
        t1 %= self.p
        z = np.matmul(v[None, :, :].astype(np.float64), t1.astype(np.float64))
        z = np.rint(z).astype(np.int64) % self.p  # (|u|, |v|, N)
        return z.reshape(-1, self.N)


class _NpDense:
    """Numpy view of a small dense algebra mod p (quotient re-runs)."""

    def __init__(self, d, p):
        self.D = d.astype(np.float64)  # (q, q, q): D[e, f, t]
        self.p = p
        self.N = d.shape[0]

    def trace_matrix(self):
        trv = np.einsum("fee->f", self.D) % self.p
        return np.rint(np.einsum("eft,t->ef", self.D, trv)).astype(np.int64) % self.p

    def pair_coeffs(self, v):
        d = len(v)
        vf = v.astype(np.float64)
        tmp = np.tensordot(vf, self.D, axes=(1, 0)) % self.p  # (d, f, t)
        z = np.matmul(vf[None, :, :], tmp) % self.p  # (d, d, t)
        ku, lu = np.triu_indices(d)
        zp = z[ku, lu]  # (P, N)
        lz = np.tensordot(zp, self.D, axes=(1, 0)) % self.p  # (P, e, t)
        lz = np.rint(lz.transpose(0, 2, 1)).astype(np.int64) % self.p
        cp = _batched_charpoly(lz, self.p)
        return cp, (ku, lu)

    def products(self, u, v):
        uf = u.astype(np.float64)
        vf = v.astype(np.float64)
        tmp = np.tensordot(uf, self.D, axes=(1, 0)) % self.p
        z = np.matmul(vf[None, :, :], tmp) % self.p
        z = np.rint(z).astype(np.int64) % self.p
        return z.transpose(1, 0, 2).reshape(-1, self.N)


def _np_radical_chain(alg):
    p, n = alg.p, alg.N
    tf = alg.trace_matrix()
    v = _np_nullspace(tf.T, p)
    level = 1
    cache = None
    while p**level <= n and len(v):
        if cache is None:
            cache = alg.pair_coeffs(v)
        coeffs, (ku, lu) = cache
        d = len(v)
        m = np.zeros((d, d), dtype=np.int64)
        cidx = n - p**level
        m[ku, lu] = coeffs[:, cidx]
        m[lu, ku] = coeffs[:, cidx]
        ns = _np_nullspace(m, p)
        if len(ns) < d:
            v = ns @ v % p
            cache = None
        level += 1
    return v


def _np_basis(v, p):
    return _np_row_basis(v, p)[0]


def _np_certify(alg, v):
    p = alg.p
    if len(v) == 0:
        return
    # ideal property: B*rad and rad*B stay inside rad; a vector x lies in
    # the span of a reduced basis exactly when x[pivots] @ basis == x
    basis, pivots = _np_row_basis(v, p)
    full = np.eye(alg.N, dtype=np.int64)
    for prods in (alg.products(v, full), alg.products(full, v)):
        rec = np.matmul(
            prods[:, pivots].astype(np.float64), basis.astype(np.float64)
        )
        if ((prods - np.rint(rec).astype(np.int64)) % p).any():
            raise OracleError("radical certification failed: not an ideal")
    # nilpotency
    s = basis
    for _ in range(alg.N + 1):
        if len(s) == 0:
            break
        nxt = _np_basis(alg.products(s, v), p)
        if len(nxt) >= len(s):
            raise OracleError("radical certification failed: not nilpotent")
        s = nxt
    else:
        raise OracleError("radical certification failed: not nilpotent")


def _np_quotient(A: StructureConstantOrder, v):
    p = A.field.p
    rr, pivots = _np_rref(v, p)
    comp = [c for c in range(A.rank) if c not in pivots]
    q = len(comp)
    proj = np.zeros((A.rank, q), dtype=np.int64)
    for qi, c in enumerate(comp):
        proj[c, qi] = 1
    for r, pc in enumerate(pivots):
        proj[pc, :] = (-rr[r, comp]) % p
    cidx = {c: i for i, c in enumerate(comp)}
    d = np.zeros((q, q, q), dtype=np.int64)
    for (e1, e2), (tgt, sf) in A.residue_products.items():
        if e1 in cidx and e2 in cidx:
            d[cidx[e1], cidx[e2], :] = (
                d[cidx[e1], cidx[e2], :] + sf * proj[tgt]
            ) % p
    return _NpDense(d, p)


# ---------------------------------------------------------------------------
# Generic exact path (small ranks; required for GF(p^2))


class _PyAlg:
    """Pure-Python view of a flattened algebra over any residue field."""

    def __init__(self, A: StructureConstantOrder):
        self.A = A
        self.F = A.field
        self.N = A.rank
        self.prods = A.residue_products
        self.by_first = {}
        for (e1, e2), val in self.prods.items():
            self.by_first.setdefault(e1, []).append((e2, val))

    def vec_mul(self, u, v):
        F = self.F
        out = [F.zero] * self.N
        for e1, x in enumerate(u):
            if F.is_zero(x):
                continue
            for e2, (tgt, sf) in self.by_first.get(e1, []):
                y = v[e2]
                if not F.is_zero(y):
                    out[tgt] = F.add(out[tgt], F.mul(F.mul(x, y), sf))
        return out

    def left_mult_block(self, z, col):
        """Matrix of left multiplication by z on one column block."""
        F = self.F
        pos = {e: i for i, e in enumerate(col)}
        s = len(col)
        mat = [[F.zero] * s for _ in range(s)]
        for e1, x in enumerate(z):
            if F.is_zero(x):
                continue
            for e2, (tgt, sf) in self.by_first.get(e1, []):
                if e2 in pos:
                    i, j = pos[tgt], pos[e2]
                    mat[i][j] = F.add(mat[i][j], F.mul(x, sf))
        return mat

    def charpoly_of(self, z):
        from .gf import charpoly

        F = self.F
        total = [F.one]
        for col in self.A.columns:
            if not col:
                continue
            cp = charpoly(F, self.left_mult_block(z, col))
            new = [F.zero] * (len(total) + len(cp) - 1)
            for i, a in enumerate(total):
                if F.is_zero(a):
                    continue
                for j, b in enumerate(cp):
                    new[i + j] = F.add(new[i + j], F.mul(a, b))
            total = new
        return total

    def trace_matrix(self):
        F = self.F
        trv = [F.zero] * self.N
        for (e1, e2), (tgt, sf) in self.prods.items():
            if tgt == e2:
                trv[e1] = F.add(trv[e1], sf)
        tf = [[F.zero] * self.N for _ in range(self.N)]
        for (e1, e2), (tgt, sf) in self.prods.items():
            tf[e1][e2] = F.add(tf[e1][e2], F.mul(sf, trv[tgt]))
        return tf


def _py_radical_chain(alg: _PyAlg):
    F, n = alg.F, alg.N
    p = F.p
    tf = alg.trace_matrix()
    tft = [[tf[e][f] for e in range(n)] for f in range(n)]
    v = nullspace(F, tft)
    level = 1
    cache = None
    while p**level <= n and v:
        if cache is None:
            d = len(v)
            cache = [[None] * d for _ in range(d)]
            for k in range(d):
                for l in range(k, d):
                    cp = alg.charpoly_of(alg.vec_mul(v[k], v[l]))
                    cache[k][l] = cache[l][k] = cp
        d = len(v)
        cidx = n - p**level
        m = [[cache[k][l][cidx] for k in range(d)] for l in range(d)]
        mu = nullspace(F, m)
        if len(mu) < d:
            twist = level % 2 if isinstance(F, QuadField) else 0
            nv = []
            for row in mu:
                lam = [F.frob(x) if twist else x for x in row]
                vec = [F.zero] * n
                for c, basis_vec in zip(lam, v):
                    if F.is_zero(c):
                        continue
                    for t in range(n):
                        vec[t] = F.add(vec[t], F.mul(c, basis_vec[t]))
                nv.append(vec)
            v = nv
            cache = None
        level += 1
    return v


def _py_basis(F, vecs):
    from .gf import rref

    if not vecs:
        return []
    rr, pivots = rref(F, vecs)
    return [rr[i] for i in range(len(pivots))]


def _py_certify(alg: _PyAlg, v):
    F = alg.F
    if not v:
        return
    unit = [[F.one if i == j else F.zero for j in range(alg.N)] for i in range(alg.N)]
    dim_v = len(_py_basis(F, v))
    for left, right in ((v, unit), (unit, v)):
        prods = [alg.vec_mul(a, b) for a in left for b in right]
        if rank(F, v + prods) != dim_v:
            raise OracleError("radical certification failed: not an ideal")
    s = _py_basis(F, v)
    for _ in range(alg.N + 1):
        if not s:
            break
        nxt = _py_basis(F, [alg.vec_mul(a, b) for a in s for b in v])
        if len(nxt) >= len(s):
            raise OracleError("radical certification failed: not nilpotent")
        s = nxt
    else:
        raise OracleError("radical certification failed: not nilpotent")


class _PyDense:
    """Quotient algebra by the radical, dense over any residue field."""

    def __init__(self, F, table):
        self.F = F
        self.N = len(table)
        self.table = table  # table[e][f] = vector of length N
        # single column block: the full regular representation
        class _A:
            columns = [list(range(self.N))]

        self.A = _A()

    def vec_mul(self, u, v):
        F = self.F
        out = [F.zero] * self.N
        for e, x in enumerate(u):
            if F.is_zero(x):
                continue
            for f, y in enumerate(v):
                if F.is_zero(y):
                    continue
                for t, c in enumerate(self.table[e][f]):
                    if not F.is_zero(c):
                        out[t] = F.add(out[t], F.mul(F.mul(x, y), c))
        return out

    def left_mult_block(self, z, col):
        F = self.F
        mat = [[F.zero] * self.N for _ in range(self.N)]
        for e, x in enumerate(z):
            if F.is_zero(x):
                continue
            for f in range(self.N):
                for t, c in enumerate(self.table[e][f]):
                    if not F.is_zero(c):
                        mat[t][f] = F.add(mat[t][f], F.mul(x, c))
        return mat

    charpoly_of = _PyAlg.charpoly_of

    def trace_matrix(self):
        F = self.F
        trv = [F.zero] * self.N
        for e in range(self.N):
            for f in range(self.N):
                trv[e] = F.add(trv[e], self.table[e][f][f])
        tf = [[F.zero] * self.N for _ in range(self.N)]
        for e in range(self.N):
            for f in range(self.N):
                vec = self.table[e][f]
                acc = F.zero
                for t, c in enumerate(vec):
                    acc = F.add(acc, F.mul(c, trv[t]))
                tf[e][f] = acc
        return tf


def _py_quotient(A: StructureConstantOrder, alg: _PyAlg, v):
    from .gf import rref

    F = A.field
    rr, pivots = rref(F, v)
    comp = [c for c in range(A.rank) if c not in pivots]
    q = len(comp)
    proj = [[F.zero] * q for _ in range(A.rank)]
    for qi, c in enumerate(comp):
        proj[c][qi] = F.one
    for r, pc in enumerate(pivots):
        for qi, c in enumerate(comp):
            proj[pc][qi] = F.neg(rr[r][c])
    table = [[[F.zero] * q for _ in range(q)] for _ in range(q)]
    cidx = {c: i for i, c in enumerate(comp)}
    for (e1, e2), (tgt, sf) in A.residue_products.items():
        if e1 in cidx and e2 in cidx:
            row = table[cidx[e1]][cidx[e2]]
            for t in range(q):
                row[t] = F.add(row[t], F.mul(sf, proj[tgt][t]))
    return _PyDense(F, table)


# ---------------------------------------------------------------------------
# Public operations


def _use_numpy(A: StructureConstantOrder) -> bool:
    """The NumPy kernels run over GF(p) above the rank threshold, and only
    where their float64 products stay exact."""
    return (
        isinstance(A.field, PrimeField)
        and A.rank > _NP_MIN_RANK
        and A.rank * (A.field.p - 1) ** 2 < _NP_EXACT_BOUND
    )


def radical_mod_m(A: StructureConstantOrder):
    """Basis of the Jacobson radical of A/mA over the residue field,
    certified by nilpotency, the ideal property, and a zero re-run on the
    quotient algebra."""
    if _use_numpy(A):
        alg = _NpFlat(A)
        v = _np_basis(_np_radical_chain(alg), alg.p)
        _np_certify(alg, v)
        if 0 < len(v) < A.rank:
            quot = _np_quotient(A, v)
            if len(_np_radical_chain(quot)):
                raise OracleError(
                    "radical certification failed: quotient has a radical"
                )
        return tuple(tuple(int(x) for x in row) for row in v)
    alg = _PyAlg(A)
    v = _py_basis(A.field, _py_radical_chain(alg))
    _py_certify(alg, v)
    if 0 < len(v) < A.rank:
        quot = _py_quotient(A, alg, v)
        if _py_radical_chain(quot):
            raise OracleError(
                "radical certification failed: quotient has a radical"
            )
    return tuple(tuple(row) for row in v)


def _w_product(A: StructureConstantOrder, u, v):
    """Product of two lifted vectors at R/m^2 precision."""
    w = A.wring
    gauss = isinstance(w, _WGauss)
    out = [w.zero if gauss else 0] * A.rank
    for (e1, e2), (tgt, sc) in A.w_products.items():
        x, y = u[e1], v[e2]
        if gauss:
            if x == w.zero or y == w.zero:
                continue
            out[tgt] = w.add(out[tgt], w.mul(w.mul(x, y), sc))
        else:
            if x == 0 or y == 0:
                continue
            out[tgt] = (out[tgt] + x * y * sc) % w.mod
    return out


def hereditary_oracle(A: StructureConstantOrder) -> bool:
    """Invertibility of the radical J of the completed order: J times its
    right dual spans the order, and the left dual times J does too."""
    rad = radical_mod_m(A)
    if len(rad) == 0:
        return True  # J = mA, always invertible
    if _use_numpy(A):
        return _np_invertibility(A, np.array(rad, dtype=np.int64))
    return _py_invertibility(A, [list(r) for r in rad])


def _np_invertibility(A, rad):
    p = A.field.p
    n = A.rank
    alg = _NpFlat(A)
    d = len(rad)
    # multiplication matrices of the radical basis vectors
    lmats = np.zeros((d, n, n), dtype=np.int64)  # left mult: r_s * e
    np.add.at(lmats, (slice(None), alg.TGT, alg.E2), rad[:, alg.E1] * alg.SF[None, :])
    lmats %= p
    rmats = np.zeros((d, n, n), dtype=np.int64)  # right mult: e * r_s
    np.add.at(rmats, (slice(None), alg.TGT, alg.E1), rad[:, alg.E2] * alg.SF[None, :])
    rmats %= p
    rann = _np_nullspace(lmats.reshape(d * n, n), p)
    lann = _np_nullspace(rmats.reshape(d * n, n), p)
    if len(rann) == 0 or len(lann) == 0:
        return False
    w = A.wring
    gauss = isinstance(w, _WGauss)

    def lift(vec):
        if gauss:
            return [w.lift_field(int(x)) for x in vec]
        return [int(x) % w.mod for x in vec]

    rad_w = [lift(row) for row in rad]
    ok = True
    for ann, left_side in ((rann, False), (lann, True)):
        rows = [rad]
        # the full one-sided multiples of each dual generator
        bmats = np.zeros((len(ann), n, n), dtype=np.int64)
        if left_side:
            np.add.at(
                bmats, (slice(None), alg.TGT, alg.E2), ann[:, alg.E1] * alg.SF[None, :]
            )
        else:
            np.add.at(
                bmats, (slice(None), alg.TGT, alg.E1), ann[:, alg.E2] * alg.SF[None, :]
            )
        bmats %= p
        rows.append(bmats.transpose(0, 2, 1).reshape(-1, n))
        # the divided products (rad * dual)/pi at the residue level
        digits = []
        for b in ann:
            bw = lift(b)
            for s in range(d):
                u, v = (bw, rad_w[s]) if left_side else (rad_w[s], bw)
                prod = _w_product(A, u, v)
                digits.append([w.digit1(x) for x in prod])
        rows.append(np.array(digits, dtype=np.int64))
        if _np_rank(np.vstack(rows), p) != n:
            ok = False
            break
    return ok


def _py_invertibility(A, rad):
    F = A.field
    n = A.rank
    alg = _PyAlg(A)
    d = len(rad)
    unit = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    # annihilator of the radical on each side
    lrows = []
    for r in rad:
        lm = [[F.zero] * n for _ in range(n)]  # map x -> r*x, rows by target
        for e1, x in enumerate(r):
            if F.is_zero(x):
                continue
            for e2, (tgt, sf) in alg.by_first.get(e1, []):
                lm[tgt][e2] = F.add(lm[tgt][e2], F.mul(x, sf))
        lrows.extend(lm)
    rann = nullspace(F, lrows)
    rrows = []
    for r in rad:
        rm = [[F.zero] * n for _ in range(n)]  # map x -> x*r
        for (e1, e2), (tgt, sf) in alg.prods.items():
            x = r[e2]
            if not F.is_zero(x):
                rm[tgt][e1] = F.add(rm[tgt][e1], F.mul(x, sf))
        rrows.extend(rm)
    lann = nullspace(F, rrows)
    if not rann or not lann:
        return False
    w = A.wring
    gauss = isinstance(w, _WGauss)

    def lift(vec):
        if gauss:
            return [w.lift_field(x) for x in vec]
        return [int(x) % w.mod for x in vec]

    rad_w = [lift(r) for r in rad]
    for ann, left_side in ((rann, False), (lann, True)):
        rows = list(rad)
        for b in ann:
            for e in unit:
                rows.append(
                    alg.vec_mul(b, e) if left_side else alg.vec_mul(e, b)
                )
            bw = lift(b)
            for s in range(d):
                u, v = (bw, rad_w[s]) if left_side else (rad_w[s], bw)
                prod = _w_product(A, u, v)
                rows.append([w.digit1(x) for x in prod])
        if rank(F, rows) != n:
            return False
    return True


def oracle_report(order: GradedOrder, m: MaximalIdeal) -> dict:
    """Cross-validation record: oracle verdict vs the structural engine."""
    from .semiprime import main_hereditary_verdict

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
