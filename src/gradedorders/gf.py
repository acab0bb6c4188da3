"""Residue fields GF(p) and GF(p^2), with the reduction maps from exact
base-field scalars and enough linear algebra for the brute-force checks.

GF(p^2) only occurs as the residue field of an inert Gaussian prime, so
it is always presented as F_p[i] with i^2 = -1; elements are (re, im)
pairs mod p.  GF(p) elements are plain ints mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_rings import (
    RING_Z,
    RING_ZI,
    BaseRing,
    KElem,
    MaximalIdeal,
    RingError,
)


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeField:
    p: int

    @property
    def size(self) -> int:
        return self.p

    zero = 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def is_zero(self, x) -> bool:
        return x % self.p == 0

    def frob(self, x):
        return x % self.p

    def from_int(self, n: int):
        return n % self.p


@dataclass(frozen=True)
class QuadField:
    """GF(p^2) = F_p[i] with i^2 = -1; requires p = 3 mod 4."""

    p: int

    def __post_init__(self):
        if self.p % 4 != 3:
            raise FieldError("-1 is a square mod p; use PrimeField")

    @property
    def size(self) -> int:
        return self.p * self.p

    zero = (0, 0)

    @property
    def one(self):
        return (1, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def mul(self, x, y):
        return (
            (x[0] * y[0] - x[1] * y[1]) % self.p,
            (x[0] * y[1] + x[1] * y[0]) % self.p,
        )

    def inv(self, x):
        n = (x[0] * x[0] + x[1] * x[1]) % self.p
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        ni = pow(n, -1, self.p)
        return ((x[0] * ni) % self.p, (-x[1] * ni) % self.p)

    def is_zero(self, x) -> bool:
        return x[0] % self.p == 0 and x[1] % self.p == 0

    def frob(self, x):
        """The p-power Frobenius: conjugation."""
        return (x[0] % self.p, (-x[1]) % self.p)

    def from_int(self, n: int):
        return (n % self.p, 0)


Field = PrimeField | QuadField


def residue_field(m: MaximalIdeal) -> Field:
    if m.residue_size == m.residue_char:
        return PrimeField(m.residue_char)
    return QuadField(m.residue_char)


def residue_map(ring: BaseRing, m: MaximalIdeal):
    """The reduction map from place-integral exact scalars to the residue
    field of m.  Rational denominators divisible by the residue
    characteristic are cancelled against the numerator by exact division
    with the prime generator; a genuine pole raises RingError."""
    from .base_rings import GaussianInt, element_valuation

    field = residue_field(m)
    p = m.residue_char
    if ring.kind == RING_Z:

        def red(x: KElem):
            if x.b != 0:
                raise RingError("element has nonzero imaginary part over Z")
            num, den = x.a, x.d
            while den % p == 0:
                den //= p
                if num % p:
                    raise RingError("element has a pole at the place")
                num //= p
            return num * pow(den, -1, p) % p

        return field, red
    g = m.generator
    if m.residue_size == p * p:  # inert
        conv = lambda z: (z.re % p, z.im % p)
    elif p == 2:  # ramified: i = 1 in the residue field
        conv = lambda z: (z.re + z.im) % 2
    else:  # split: i maps to -a/b mod p for the generator a+bi
        r = (-m.gen_re * pow(m.gen_im, -1, p)) % p
        conv = lambda z: (z.re + r * z.im) % p

    def red(x: KElem):
        num, den = x.as_int_pair()
        dd = GaussianInt(den, 0)
        for _ in range(element_valuation(RING_ZI, dd, m)):
            num = num.exact_div(g)  # raises RingError on a pole
            dd = dd.exact_div(g)
        return field.mul(conv(num), field.inv(conv(dd)))

    return field, red


# ---------------------------------------------------------------------------
# Dense linear algebra over a Field (generic, exact)


def rref(field: Field, rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next(
            (i for i in range(r, nrows) if not field.is_zero(mat[i][c])), None
        )
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank(field: Field, rows) -> int:
    return len(rref(field, rows)[1])


def nullspace(field: Field, rows):
    """Basis of the right kernel, as row vectors."""
    ncols = len(rows[0]) if rows else 0
    mat, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(mat[r][fc])
        basis.append(vec)
    return basis


def charpoly(field: Field, a):
    """Coefficients [c_0 .. c_n] of det(xI - A) = sum c_k x^k, via the
    Hessenberg recurrence (exact, division-based)."""
    n = len(a)
    h = [list(r) for r in a]
    # reduce to upper Hessenberg form
    for c in range(n - 2):
        piv = next(
            (i for i in range(c + 1, n) if not field.is_zero(h[i][c])), None
        )
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for row in h:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = field.inv(h[c + 1][c])
        for i in range(c + 2, n):
            if field.is_zero(h[i][c]):
                continue
            f = field.mul(h[i][c], inv)
            h[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(h[i], h[c + 1])]
            for row in h:
                row[c + 1] = field.add(row[c + 1], field.mul(f, row[i]))
    # charpoly of a Hessenberg matrix by leading-principal-minor recurrence
    polys = [[field.one]]  # p_0 = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        # p_k = (x - h[k-1][k-1]) * p_{k-1} - corrections
        term = [field.zero] + list(prev)
        d = h[k - 1][k - 1]
        term = [
            field.sub(term[i], field.mul(d, prev[i]) if i < len(prev) else field.zero)
            for i in range(len(term))
        ]
        coeff = field.one
        for m in range(1, k):
            coeff = field.mul(coeff, h[k - m][k - m - 1])
            if field.is_zero(coeff):
                break
            factor = field.mul(coeff, h[k - m - 1][k - 1])
            pm = polys[k - m - 1]
            for i in range(len(pm)):
                term[i] = field.sub(term[i], field.mul(factor, pm[i]))
        polys.append(term)
    return polys[n]
