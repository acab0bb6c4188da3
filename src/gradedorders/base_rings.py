"""Exact arithmetic over Z and Z[i]: Gaussian integers, integer factoring,
maximal ideals, prime splitting, valuations and fractional ideals.

Both supported base rings are principal ideal domains.  Ideals are kept in
factored form (maximal ideal -> exponent) and can always produce a
generator.  Generators in Z[i] are normalized to the unique associate in
the first quadrant (re > 0, im >= 0) so equality tests are deterministic.

Completions never appear as data: local data is the global ring together
with one maximal ideal (its place), and every downstream computation uses
only valuations and residue fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

RING_Z = "Z"
RING_ZI = "Zi"


# largest valuation magnitude accepted from input: exact scalars are
# uniformizer powers, and their size grows with it
MAX_EXPONENT = 10**6
# largest norm factored: Pollard-Brent time grows with the square root of
# the smallest prime factor, up to about 0.15 s below this bound (worst of
# 50 products of two 32-bit primes), so ideal generators and primes read
# from input are bounded by their norm
MAX_NORM = 2**64
# most generators of norm above LARGE_NORM that one input may hold: factoring
# one takes under a millisecond below it and up to about 0.15 s above it
LARGE_NORM = 2**32
MAX_LARGE_GENERATORS = 8


class RingError(ValueError):
    pass


class NotPrime(RingError):
    pass


class NotInRing(RingError):
    pass


# ---------------------------------------------------------------------------
# Gaussian integers


@dataclass(frozen=True)
class GaussianInt:
    re: int
    im: int

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> GaussianInt:
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __divmod__(self, other: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
        """Euclidean division with remainder of norm < norm(other)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Gaussian integer")
        d = other.norm()
        num = self * other.conj()
        q = GaussianInt(_round_div(num.re, d), _round_div(num.im, d))
        return q, self - q * other

    def exact_div(self, other: GaussianInt) -> GaussianInt:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise RingError(f"{other} does not divide {self}")
        return q

    def normalized(self) -> GaussianInt:
        """The first-quadrant associate (re > 0, im >= 0); 0 stays 0."""
        z = self
        for _ in range(4):
            if z.re > 0 and z.im >= 0:
                return z
            z = GaussianInt(-z.im, z.re)  # multiply by i
        return self  # zero

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"


def _round_div(a: int, b: int) -> int:
    """Round a/b to the nearest integer (ties go up)."""
    return (2 * a + b) // (2 * b)


def parse_gaussian(s: str) -> GaussianInt:
    """Parse strings like "5", "1+2i", "-3i", "i", "2-i"."""
    import re as _re

    s = s.strip().replace(" ", "")
    # the real part is a whole digit run not followed by i; a lookahead of
    # one character keeps the match linear in the length of s
    m = _re.fullmatch(r"(?:([+-]?\d+)(?![\di]))?(([+-]?\d*)i)?", s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise RingError(f"cannot parse Gaussian integer: {s!r}")
    try:
        re_part = int(m.group(1)) if m.group(1) else 0
        im_part = 0
        if m.group(2) is not None:
            raw = m.group(3)
            if raw in ("", "+"):
                im_part = 1
            elif raw == "-":
                im_part = -1
            else:
                im_part = int(raw)
    except ValueError:  # a numeral past the interpreter's digit limit
        raise RingError(f"cannot parse Gaussian integer: too long ({len(s)} characters)") from None
    return GaussianInt(re_part, im_part)


def gaussian_gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.normalized()


# ---------------------------------------------------------------------------
# Elements of the quotient field K (= Q or Q(i))


class KElem:
    """An exact element (a + b*i)/d of the quotient field, kept as three
    integers in normal form: d > 0 and gcd(a, b, d) = 1.  Elements over
    base Z have b == 0.

    The normal form is unique, so equality and hashing compare the triples,
    and every operation is a few integer products plus one gcd.  Instances
    are immutable; ``KElem(re, im)`` accepts any two rationals."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # already in normal form: a prime's full power in d is its full
        # power in one of the two reduced denominators, so it misses that
        # numerator
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("KElem is immutable")

    def __delattr__(self, name):
        raise AttributeError("KElem is immutable")

    def __reduce__(self):
        return _make, (self.a, self.b, self.d)

    @staticmethod
    def of(re, im=0) -> KElem:
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        return KElem(re, im)

    @staticmethod
    def from_gaussian(z: GaussianInt) -> KElem:
        return _make(z.re, z.im, 1)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, other):
        if other.__class__ is not KElem:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other: KElem) -> KElem:
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other: KElem) -> KElem:
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self) -> KElem:
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: KElem) -> KElem:
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def inverse(self) -> KElem:
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: KElem) -> KElem:
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero")
        d2 = other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * n)

    def __pow__(self, k: int) -> KElem:
        if k < 0:
            return self.inverse() ** (-k)
        out = KONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_int_pair(self) -> tuple[GaussianInt, int]:
        """Write the element as (numerator, positive integer denominator)."""
        return GaussianInt(self.a, self.b), self.d

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"

    def __repr__(self) -> str:
        return f"KElem({self.re!r}, {self.im!r})"


_new_kelem = object.__new__
_set_a, _set_b, _set_d = KElem.a.__set__, KElem.b.__set__, KElem.d.__set__


def _make(a: int, b: int, d: int) -> KElem:
    """The element (a + b*i)/d, whose triple is already in normal form."""
    x = _new_kelem(KElem)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> KElem:
    """The element (a + b*i)/d for any d > 0, brought to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


KONE = _make(1, 0, 1)


# ---------------------------------------------------------------------------
# Factoring integers up to MAX_NORM

# the first twelve primes: divided out first, and as Miller-Rabin bases they
# decide primality exactly below 3.3 * 10**24 (Sorenson and Webster 2017),
# far above MAX_NORM
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n: int) -> bool:
    """Deterministic primality of n, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n with no factor among _SMALL_PRIMES:
    Brent's cycle-finding variant of Pollard's rho (BIT 20, 1980), with the
    gcd taken once per batch of steps.  The start is fixed, so the divisor
    found is deterministic."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """The prime factorisation {p: e} of an integer n >= 1, primes in
    increasing order; exact for n < 3.3 * 10**24."""
    if n < 1:
        raise RingError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _miller_rabin(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            rest += [d, m // d]
    return dict(sorted(out.items()))


def _sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 modulo a prime p = 1 (mod 4):
    c**((p - 1) / 4) for the least quadratic non-residue c."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r = pow(c, (p - 1) // 4, p)
    return min(r, p - r)


# ---------------------------------------------------------------------------
# Rings and maximal ideals


@dataclass(frozen=True)
class MaximalIdeal:
    """A maximal ideal of Z or Z[i], stored by its normalized prime
    generator together with residue data (p, q = p**f)."""

    ring_kind: str
    gen_re: int
    gen_im: int
    residue_char: int
    residue_size: int

    @property
    def generator(self) -> GaussianInt:
        return GaussianInt(self.gen_re, self.gen_im)

    @property
    def residue_degree(self) -> int:
        return 1 if self.residue_size == self.residue_char else 2

    def __str__(self) -> str:
        if self.ring_kind == RING_Z:
            return f"({self.gen_re})"
        return f"({self.generator})"

    def __repr__(self) -> str:
        return f"MaximalIdeal({self.ring_kind}, {self.generator})"


def place_key(m: MaximalIdeal) -> tuple[int, int, int]:
    """Sort key for places: by residue characteristic, then generator."""
    return m.residue_char, m.gen_re, m.gen_im


@dataclass(frozen=True)
class BaseRing:
    """Z or Z[i]; local data pairs it with one of its maximal ideals."""

    kind: str


def check_place(ring: BaseRing, m: MaximalIdeal) -> None:
    """Refuse a maximal ideal of the other ring."""
    if m.ring_kind != ring.kind:
        raise RingError("maximal ideal belongs to a different ring")


ZZ = BaseRing(RING_Z)
ZI = BaseRing(RING_ZI)


def _factor(norm: int) -> dict[int, int]:
    if norm > MAX_NORM:
        raise RingError(f"norm {norm} exceeds cap 2**64")
    return factorint(norm)


def _is_prime(p: int) -> bool:
    if p > MAX_NORM:
        raise RingError(f"norm {p} exceeds cap 2**64")
    return _miller_rabin(p)


@lru_cache(maxsize=None)
def _factor_prime_cached(kind: str, p: int) -> tuple[tuple[MaximalIdeal, int], ...]:
    if kind == RING_Z:
        return ((MaximalIdeal(RING_Z, p, 0, p, p), 1),)
    if p == 2:
        return ((MaximalIdeal(RING_ZI, 1, 1, 2, 2), 2),)
    if p % 4 == 3:
        return ((MaximalIdeal(RING_ZI, p, 0, p, p * p), 1),)
    # split case: p = (a+bi)(a-bi)
    r = _sqrt_minus_one(p)
    g = gaussian_gcd(GaussianInt(p, 0), GaussianInt(r, 1))
    g2 = g.conj().normalized()
    ms = sorted(
        [g, g2], key=lambda z: (z.re, z.im)
    )
    return tuple(
        (MaximalIdeal(RING_ZI, z.re, z.im, p, p), 1) for z in ms
    )


def factor_rational_prime(ring: BaseRing, p: int) -> list[tuple[MaximalIdeal, int]]:
    """Maximal ideals above the rational prime p, with ramification indices."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return list(_factor_prime_cached(ring.kind, p))


def maximal_ideals_above(ring: BaseRing, p: int) -> list[MaximalIdeal]:
    return [m for m, _ in factor_rational_prime(ring, p)]


def element_valuation(z: GaussianInt, m: MaximalIdeal) -> int:
    """Exponent of m in the factorization of the nonzero element z."""
    if z.is_zero():
        raise RingError("valuation of zero")
    return _valuation(z.re, z.im, m)


def _valuation(a: int, b: int, m: MaximalIdeal) -> int:
    """Exponent of m in the nonzero Gaussian integer a + b*i."""
    v = 0
    gr, gi = m.gen_re, m.gen_im
    if gi == 0:  # m = (p): a rational prime, or an inert one of Z[i]
        while a % gr == 0 and b % gr == 0:
            a //= gr
            b //= gr
            v += 1
        return v
    # (a + b*i) / (gr + gi*i) = (a + b*i)(gr - gi*i) / q
    q = gr * gr + gi * gi
    while True:
        x, y = a * gr + b * gi, b * gr - a * gi
        if x % q or y % q:
            return v
        a, b = x // q, y // q
        v += 1


def kelem_valuation(ring: BaseRing, x: KElem, m: MaximalIdeal) -> int:
    """Valuation at m of a nonzero element of the quotient field."""
    if x.is_zero():
        raise RingError("valuation of zero")
    if ring.kind == RING_Z and x.b != 0:
        raise NotInRing("element has nonzero imaginary part over Z")
    return _valuation(x.a, x.b, m) - _valuation(x.d, 0, m)


# ---------------------------------------------------------------------------
# Fractional ideals in factored form


@dataclass(frozen=True)
class FractionalIdealR:
    """A fractional ideal, as a finite product of maximal-ideal powers.
    Exponents in the stored factorization are nonzero."""

    ring_kind: str
    factors: tuple[tuple[MaximalIdeal, int], ...]  # sorted, exponents != 0

    @staticmethod
    def one(ring: BaseRing) -> FractionalIdealR:
        return FractionalIdealR(ring.kind, ())

    @staticmethod
    def from_factors(
        ring: BaseRing, factors: dict[MaximalIdeal, int]
    ) -> FractionalIdealR:
        items = tuple(
            sorted(
                ((m, e) for m, e in factors.items() if e != 0),
                key=lambda t: place_key(t[0]),
            )
        )
        return FractionalIdealR(ring.kind, items)

    @staticmethod
    def principal(ring: BaseRing, gen: int | GaussianInt) -> FractionalIdealR:
        z = GaussianInt(gen, 0) if isinstance(gen, int) else gen
        if z.is_zero():
            raise RingError("zero generator")
        if ring.kind == RING_Z and z.im != 0:
            raise NotInRing("Gaussian generator over Z")
        fac: dict[MaximalIdeal, int] = {}
        for p in _factor(_norm(ring, z)):
            for m in maximal_ideals_above(ring, int(p)):
                e = element_valuation(z, m)
                if e:
                    fac[m] = e
        return FractionalIdealR.from_factors(ring, fac)

    def as_dict(self) -> dict[MaximalIdeal, int]:
        return dict(self.factors)

    def __mul__(self, other: FractionalIdealR) -> FractionalIdealR:
        if other.ring_kind != self.ring_kind:
            raise RingError("ideals over different rings")
        fac = self.as_dict()
        for m, e in other.factors:
            fac[m] = fac.get(m, 0) + e
        return FractionalIdealR.from_factors(BaseRing(self.ring_kind), fac)

    def __pow__(self, k: int) -> FractionalIdealR:
        return FractionalIdealR.from_factors(
            BaseRing(self.ring_kind), {m: e * k for m, e in self.factors}
        )

    def __add__(self, other: FractionalIdealR) -> FractionalIdealR:
        """Ideal sum: placewise minimum of valuations (missing places are 0)."""
        if other.ring_kind != self.ring_kind:
            raise RingError("ideals over different rings")
        a, b = self.as_dict(), other.as_dict()
        fac = {m: min(a.get(m, 0), b.get(m, 0)) for m in set(a) | set(b)}
        return FractionalIdealR.from_factors(BaseRing(self.ring_kind), fac)

    def support(self) -> list[MaximalIdeal]:
        return [m for m, _ in self.factors]


def valuation(ideal: FractionalIdealR, m: MaximalIdeal) -> int:
    """Exponent of m in the factorization of the fractional ideal."""
    return ideal.as_dict().get(m, 0)


def principal_generator(ideal: FractionalIdealR) -> KElem:
    """The normalized generator, as a quotient-field element: both
    supported rings are PIDs, so every fractional ideal is principal."""
    gen = KONE
    for m, e in ideal.factors:
        gen = gen * (KElem.from_gaussian(m.generator) ** e)
    return normalize_scalar(BaseRing(ideal.ring_kind), gen)


def normalize_scalar(ring: BaseRing, x: KElem) -> KElem:
    """Canonical associate: positive over Q, first-quadrant over Q(i)."""
    if x.is_zero():
        return x
    if ring.kind == RING_Z:
        return _make(abs(x.a), 0, x.d) if x.b == 0 else x
    a, b = x.a, x.b
    for _ in range(4):
        if a > 0 and b >= 0:
            return _make(a, b, x.d)
        a, b = -b, a  # multiply by i
    return x


def _norm(ring: BaseRing, z: GaussianInt) -> int:
    """The norm over the ring: |z| over Z, z * conj(z) over Z[i]."""
    return abs(z.re) if ring.kind == RING_Z else z.norm()


def ideal_generators(ring: BaseRing, obj) -> list[tuple[GaussianInt, int]]:
    """Read {"gen": "..."} or {"factors": [["gen", e], ...]} as (generator,
    exponent) pairs, without factoring anything."""
    if not isinstance(obj, dict):
        raise RingError(f"ideal must be an object, got {obj!r}")
    if "gen" in obj:
        return [(_parse_elem(ring, obj["gen"]), 1)]
    if "factors" in obj:
        factors = obj["factors"]
        if not isinstance(factors, list) or not all(
            isinstance(f, list) and len(f) == 2 and type(f[1]) is int for f in factors
        ):
            raise RingError("ideal factors must be a list of [generator, integer exponent] pairs")
        out = []
        for gen, e in factors:
            check_exponent(e)
            out.append((_parse_elem(ring, gen), e))
        return out
    raise RingError("ideal object needs 'gen' or 'factors'")


def ideal_from_json(ring: BaseRing, obj) -> FractionalIdealR:
    """Parse {"gen": "..."} or {"factors": [["gen", e], ...]}."""
    out = FractionalIdealR.one(ring)
    for z, e in ideal_generators(ring, obj):
        out = out * (FractionalIdealR.principal(ring, z) ** e)
    return out


def check_factoring_budget(ring: BaseRing, gens) -> None:
    """Generators of one input with a norm above LARGE_NORM are bounded by
    MAX_LARGE_GENERATORS, so factoring them all stays within seconds."""
    large = sum(_norm(ring, z) > LARGE_NORM for z in gens)
    if large > MAX_LARGE_GENERATORS:
        raise RingError(f"{large} generators of norm above 2**32 exceed cap {MAX_LARGE_GENERATORS}")


def check_exponent(e: int) -> None:
    """Valuations read from input are bounded by MAX_EXPONENT."""
    if abs(e) > MAX_EXPONENT:
        raise RingError(f"exponent {e} exceeds cap {MAX_EXPONENT}")


def ideal_to_json(ideal: FractionalIdealR) -> dict:
    return {"factors": [[str(m.generator), e] for m, e in ideal.factors]}


def _parse_elem(ring: BaseRing, s) -> GaussianInt:
    if isinstance(s, int):
        return GaussianInt(s, 0)
    z = parse_gaussian(str(s))
    if ring.kind == RING_Z and z.im != 0:
        raise NotInRing(f"{s!r} is not an element of Z")
    return z
