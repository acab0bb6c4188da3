"""Exact arithmetic over Z and Z[i]: field elements, integer factoring,
maximal ideals, prime splitting, valuations and fractional ideals.

Both supported base rings are principal ideal domains.  Ideals are kept in
factored form (maximal ideal -> exponent) and can always produce a
generator.  Generators in Z[i] are normalized to the unique associate in
the first quadrant (re > 0, im >= 0) so equality tests are deterministic.
An element of the ring is the field element (a + b*i)/d with d = 1.

Completions never appear as data: local data is the global ring together
with one maximal ideal (its place), and every downstream computation uses
only valuations and residue fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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


def parse_gaussian(s: str) -> KElem:
    """Parse strings like "5", "1+2i", "-3i", "i", "2-i" as a ring element."""
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
    return _make(re_part, im_part, 1)


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


def _two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a*a + b*b = p, for a prime p = 1 (mod 4): Euclid on
    (p, r), r the smaller square root of -1, run until the remainder r
    satisfies r*r < p; that remainder and the next are a and b (Brillhart,
    Math. Comp. 26, 1972)."""
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    return b, a % b


# ---------------------------------------------------------------------------
# Rings and maximal ideals


@dataclass(frozen=True)
class BaseRing:
    """Z or Z[i]; local data pairs it with one of its maximal ideals."""

    kind: str


ZZ = BaseRing("Z")
ZI = BaseRing("Zi")


@dataclass(frozen=True)
class MaximalIdeal:
    """A maximal ideal of Z or Z[i], stored by its normalized prime
    generator together with residue data (p, q = p**f)."""

    ring: BaseRing
    gen_re: int
    gen_im: int
    residue_char: int
    residue_size: int

    @property
    def generator(self) -> KElem:
        return _make(self.gen_re, self.gen_im, 1)

    @property
    def residue_degree(self) -> int:
        return 1 if self.residue_size == self.residue_char else 2

    def __str__(self) -> str:
        return f"({self.generator})"

    def __repr__(self) -> str:
        return f"MaximalIdeal({self.ring.kind}, {self.generator})"


def place_key(m: MaximalIdeal) -> tuple[int, int, int]:
    """Sort key for places: by residue characteristic, then generator."""
    return m.residue_char, m.gen_re, m.gen_im


def check_place(ring: BaseRing, m: MaximalIdeal) -> None:
    """Refuse a maximal ideal of the other ring."""
    if m.ring != ring:
        raise RingError("maximal ideal belongs to a different ring")


def _factor(norm: int) -> dict[int, int]:
    if norm > MAX_NORM:
        raise RingError(f"norm {norm} exceeds cap 2**64")
    return factorint(norm)


def _is_prime(p: int) -> bool:
    if p > MAX_NORM:
        raise RingError(f"norm {p} exceeds cap 2**64")
    return _miller_rabin(p)


@lru_cache(maxsize=None)
def _factor_prime_cached(ring: BaseRing, p: int) -> tuple[tuple[MaximalIdeal, int], ...]:
    if ring == ZZ:
        return ((MaximalIdeal(ZZ, p, 0, p, p), 1),)
    if p == 2:
        return ((MaximalIdeal(ZI, 1, 1, 2, 2), 2),)
    if p % 4 == 3:
        return ((MaximalIdeal(ZI, p, 0, p, p * p), 1),)
    # split case: p = (a+bi)(a-bi), and a-bi is an associate of b+ai
    a, b = _two_squares(p)
    return tuple((MaximalIdeal(ZI, x, y, p, p), 1) for x, y in sorted([(a, b), (b, a)]))


def factor_rational_prime(ring: BaseRing, p: int) -> list[tuple[MaximalIdeal, int]]:
    """Maximal ideals above the rational prime p, with ramification indices."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    return list(_factor_prime_cached(ring, p))


def maximal_ideals_above(ring: BaseRing, p: int) -> list[MaximalIdeal]:
    return [m for m, _ in factor_rational_prime(ring, p)]


def element_valuation(z: KElem, m: MaximalIdeal) -> int:
    """Exponent of m in the factorization of the nonzero ring element z."""
    if z.d != 1:
        raise NotInRing(f"{z} is not an element of the ring")
    if z.is_zero():
        raise RingError("valuation of zero")
    return _valuation(z.a, z.b, m)


def divide_by_generator(a: int, b: int, m: MaximalIdeal) -> tuple[int, int] | None:
    """(a + b*i) divided by the generator of m, as a coordinate pair, or
    None when the quotient is not a Gaussian integer."""
    gr, gi = m.gen_re, m.gen_im
    if gi == 0:  # m = (p): a rational prime, or an inert one of Z[i]
        return None if a % gr or b % gr else (a // gr, b // gr)
    # (a + b*i) / (gr + gi*i) = (a + b*i)(gr - gi*i) / q
    q = gr * gr + gi * gi
    x, y = a * gr + b * gi, b * gr - a * gi
    return None if x % q or y % q else (x // q, y // q)


def _valuation(a: int, b: int, m: MaximalIdeal) -> int:
    """Exponent of m in the nonzero Gaussian integer a + b*i."""
    v = 0
    while (quotient := divide_by_generator(a, b, m)) is not None:
        a, b = quotient
        v += 1
    return v


def kelem_valuation(ring: BaseRing, x: KElem, m: MaximalIdeal) -> int:
    """Valuation at m of a nonzero element of the quotient field."""
    if x.is_zero():
        raise RingError("valuation of zero")
    if x.b != 0 and ring == ZZ:
        raise NotInRing("element has nonzero imaginary part over Z")
    v = _valuation(x.a, x.b, m)
    return v if x.d == 1 else v - _valuation(x.d, 0, m)


# ---------------------------------------------------------------------------
# Fractional ideals in factored form


@dataclass(frozen=True)
class FractionalIdealR:
    """A fractional ideal, as a finite product of maximal-ideal powers.
    Exponents in the stored factorization are nonzero."""

    ring: BaseRing
    factors: tuple[tuple[MaximalIdeal, int], ...]  # sorted, exponents != 0

    @staticmethod
    def one(ring: BaseRing) -> FractionalIdealR:
        return FractionalIdealR(ring, ())

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
        return FractionalIdealR(ring, items)

    @staticmethod
    def principal(ring: BaseRing, gen: int | KElem) -> FractionalIdealR:
        z = KElem.of(gen) if isinstance(gen, int) else gen
        if z.d != 1:
            raise NotInRing(f"{z} is not an element of the ring")
        if z.is_zero():
            raise RingError("zero generator")
        if ring == ZZ and z.b != 0:
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
        if other.ring != self.ring:
            raise RingError("ideals over different rings")
        fac = self.as_dict()
        for m, e in other.factors:
            fac[m] = fac.get(m, 0) + e
        return FractionalIdealR.from_factors(self.ring, fac)

    def __pow__(self, k: int) -> FractionalIdealR:
        return FractionalIdealR.from_factors(self.ring, {m: e * k for m, e in self.factors})

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
        gen = gen * (m.generator ** e)
    return normalize_scalar(ideal.ring, gen)


def normalize_scalar(ring: BaseRing, x: KElem) -> KElem:
    """Canonical associate: positive over Q, first-quadrant over Q(i)."""
    if x.is_zero():
        return x
    if ring == ZZ:
        return _make(abs(x.a), 0, x.d) if x.b == 0 else x
    a, b = x.a, x.b
    for _ in range(4):
        if a > 0 and b >= 0:
            return _make(a, b, x.d)
        a, b = -b, a  # multiply by i
    return x


def _norm(ring: BaseRing, z: KElem) -> int:
    """The norm of a ring element: |z| over Z, z * conj(z) over Z[i]."""
    return abs(z.a) if ring == ZZ else z.a * z.a + z.b * z.b


def check_factoring_budget(ring: BaseRing, gens) -> None:
    """Generators of one input with a norm above LARGE_NORM are bounded by
    MAX_LARGE_GENERATORS, so factoring them all stays within seconds."""
    large = sum(_norm(ring, z) > LARGE_NORM for z in gens)
    if large > MAX_LARGE_GENERATORS:
        raise RingError(f"{large} generators of norm above 2**32 exceed cap {MAX_LARGE_GENERATORS}")
