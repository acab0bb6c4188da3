"""Reduction of exact base-field scalars at one place, to first order in
the uniformizer.

The oracle works over the prime field F_p at every place.  At an inert
Gaussian prime, whose residue field is GF(p^2), it restricts scalars to
Z_p: there the uniformizer is p and the local ring is Z_p + Z_p*i, so each
rational coordinate of a scalar a + b*i is reduced on its own.  The
ramified prime (1+i) already has residue field F_2 and keeps one
coordinate.
"""

from __future__ import annotations

from .base_rings import ZZ, KElem, MaximalIdeal, RingError, divide_by_generator


def _cancel(x: KElem, m: MaximalIdeal) -> tuple[tuple[int, int], tuple[int, int]]:
    """x as num/den, two Gaussian integers as coordinate pairs, with den a
    unit at m; a pole raises RingError."""
    num, den = (x.a, x.b), (x.d, 0)
    while (quotient := divide_by_generator(*den, m)) is not None:
        den, num = quotient, divide_by_generator(*num, m)
        if num is None:
            raise RingError("element has a pole at the place")
    return num, den


def _digits(w: int, p: int) -> tuple[int, int]:
    return w % p, w // p


def digit_map(m: MaximalIdeal):
    """The first-order reduction at m, and whether p is a uniformizer there.

    digits(x) gives, for a place-integral scalar x, one pair (lo, hi) of
    integers in [0, p) per coordinate, with x = lo + hi*t mod m^2, where
    t = p wherever p is a uniformizer (over Z and at every unramified
    Gaussian prime) and t = 1+i at the ramified prime.  At a split prime p
    is the uniformizer times a unit, the same for every x, so the hi digits
    are those of x/pi up to that one unit factor.  lo is the residue of x.
    There are two coordinates at an inert prime and one elsewhere.  A pole
    raises RingError."""
    p = m.residue_char
    mod = p * p
    if m.ring == ZZ:

        def digits(x: KElem):
            if x.b != 0:
                raise RingError("element has nonzero imaginary part over Z")
            # x.a/x.d is in lowest terms, so p | d is a pole
            if x.d % p == 0:
                raise RingError("element has a pole at the place")
            return (_digits(x.a * pow(x.d, -1, mod) % mod, p),)

        return digits, True
    if m.residue_degree == 2:  # inert: pi = p

        def digits(x: KElem):
            # gcd(a, b, d) = 1, so p | d is a pole
            if x.d % p == 0:
                raise RingError("element has a pole at the place")
            inv = pow(x.d, -1, mod)
            return (_digits(x.a * inv % mod, p), _digits(x.b * inv % mod, p))

        return digits, True
    if p == 2:  # ramified: Z[i]/2 = F_2 + F_2*(1+i)

        def digits(x: KElem):
            (a, b), (c, d) = _cancel(x, m)
            # den is 1 or i mod 2, its own conjugate's inverse
            re = (a * c + b * d) % 2
            im = (b * c - a * d) % 2
            return (((re + im) % 2, im),)

        return digits, False
    # split: i maps to the square root r2 of -1 mod p^2 at which the
    # generator vanishes mod p (Hensel lift of r = -re/im)
    r = -m.gen_re * pow(m.gen_im, -1, p) % p
    r2 = (r + p * ((-1 - r * r) // p * pow(2 * r, -1, p))) % mod

    def digits(x: KElem):
        (a, b), (c, d) = _cancel(x, m)
        w = (a + r2 * b) * pow(c + r2 * d, -1, mod) % mod
        return (_digits(w, p),)

    return digits, True
