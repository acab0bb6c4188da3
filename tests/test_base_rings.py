import copy
import math
import pickle
import random
import time

import pytest
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedorders import base_rings
from gradedorders.base_rings import (
    ZZ,
    ZI,
    FractionalIdealR,
    KElem,
    RingError,
    divide_by_generator,
    element_valuation,
    factor_rational_prime,
    factorint,
    kelem_valuation,
    maximal_ideals_above,
    normalize_scalar,
    parse_gaussian,
    principal_generator,
    valuation,
)


class TestGaussianInt:
    # a Gaussian integer is the field element (a + b*i)/1
    def test_norm_multiplicative(self):
        a, b = KElem.of(3, 2), KElem.of(-1, 4)
        assert base_rings._norm(ZI, a * b) == base_rings._norm(ZI, a) * base_rings._norm(ZI, b)

    def test_parse_roundtrip(self):
        for s in ("3", "-2", "i", "-i", "1+2i", "2-1i", "5i"):
            z = parse_gaussian(s)
            assert z.d == 1
            assert parse_gaussian(str(z)) == z

    @pytest.mark.parametrize("tail", ["x", "i+", "+1x"])
    def test_parse_rejects_long_garbage_quickly(self, tail):
        t0 = time.monotonic()
        with pytest.raises(RingError):
            parse_gaussian("1" * 50_000 + tail)
        assert time.monotonic() - t0 < 1.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(RingError):
            parse_gaussian("2+3j+1")


gaussians = st.builds(KElem.of, st.integers(-30, 30), st.integers(-30, 30))
places = st.sampled_from([m for p in (2, 3, 5, 13) for m in maximal_ideals_above(ZI, p)])


@given(gaussians, places)
@settings(max_examples=300)
def test_divide_by_generator(z, m):
    quotient = divide_by_generator(z.a, z.b, m)
    if quotient is None:
        assert not z.is_zero() and element_valuation(z, m) == 0
    else:
        assert KElem.of(*quotient) * m.generator == z


class TestSplitting:
    def test_split_prime(self):
        factors = factor_rational_prime(ZI, 5)
        assert [e for _, e in factors] == [1, 1]
        ms = maximal_ideals_above(ZI, 5)
        assert len(ms) == 2
        assert {base_rings._norm(ZI, m.generator) for m in ms} == {5}

    def test_inert_prime(self):
        ms = maximal_ideals_above(ZI, 3)
        assert len(ms) == 1
        assert ms[0].residue_size == 9

    def test_ramified_prime(self):
        ms = maximal_ideals_above(ZI, 2)
        assert len(ms) == 1
        assert base_rings._norm(ZI, ms[0].generator) == 2

    def test_rational_places(self):
        (m,) = maximal_ideals_above(ZZ, 7)
        assert m.residue_char == 7 and m.residue_size == 7


def reference_places(p):
    """The places of Z[i] above the prime p as (generator, residue size,
    ramification), read off from p as a sum of two squares."""
    if p == 2:
        return [((1, 1), 2, 2)]
    if p % 4 == 3:
        return [((p, 0), p * p, 1)]
    squares = [(a, math.isqrt(p - a * a)) for a in range(1, math.isqrt(p) + 1)]
    return [((a, b), p, 1) for a, b in squares if b > 0 and a * a + b * b == p]


def factoring_sample():
    """1, the ends of the MAX_NORM range, prime powers, Carmichael numbers,
    a strong pseudoprime to the bases 2..23, and seeded random integers and
    products of two 32-bit primes, all at most 2**64.  Cubes of primes near
    2**32 lie above 2**64, so only their squares are included."""
    near = [sympy.prevprime(2**21), sympy.nextprime(2**21), sympy.prevprime(2**32)]
    rng = random.Random(2024)
    sample = [1, 2**64, 2**64 - 59, 561, 41041, 825265, 3825123056546413051]
    sample += [q**2 for q in near] + [q**3 for q in near[:2]]
    sample += [rng.randrange(1, 2**64) for _ in range(200)]
    # 2**32 - 5 is the largest prime below 2**32
    primes = [sympy.nextprime(rng.randrange(2**31, 2**32 - 5)) for _ in range(20)]
    sample += [q * r for q, r in zip(primes[::2], primes[1::2])]
    return sample


class TestFactoring:
    # SymPy is the reference; the package itself does not import it
    @pytest.mark.parametrize("n", factoring_sample())
    def test_factorint_and_is_prime_match_sympy(self, n):
        assert factorint(n) == sympy.factorint(n)
        assert list(factorint(n)) == sorted(factorint(n))
        assert base_rings._is_prime(n) == sympy.isprime(n)

    def test_factorint_refuses_non_positive(self):
        for n in (0, -6):
            with pytest.raises(RingError, match=f"^cannot factor {n}$"):
                factorint(n)

    def test_is_prime_keeps_the_norm_cap(self):
        with pytest.raises(RingError, match=r"^norm 18446744073709551617 exceeds cap 2\*\*64$"):
            base_rings._is_prime(2**64 + 1)

    def test_places_of_every_prime_below_10_to_the_4(self):
        for p in sympy.primerange(2, 10**4):
            got = [((m.gen_re, m.gen_im), m.residue_size, e) for m, e in factor_rational_prime(ZI, p)]
            assert got == reference_places(p), p
            if p % 4 == 1:
                assert base_rings._sqrt_minus_one(p) == sympy.sqrt_mod(-1, p)


class TestValuation:
    def test_element_valuation_split(self):
        p, q = maximal_ideals_above(ZI, 5)
        z = KElem.of(5)
        assert element_valuation(z, p) == 1
        assert element_valuation(z, q) == 1

    def test_ramified(self):
        (m,) = maximal_ideals_above(ZI, 2)
        assert element_valuation(KElem.of(2), m) == 2

    def test_element_valuation_refuses_a_fraction(self):
        (m,) = maximal_ideals_above(ZI, 2)
        with pytest.raises(RingError, match=r"^1/2 is not an element of the ring$"):
            element_valuation(KElem(Fraction(1, 2)), m)

    @given(st.integers(1, 400), st.sampled_from([2, 3, 5, 7]))
    def test_valuation_homomorphism(self, n, p):
        (m,) = maximal_ideals_above(ZZ, p)
        for k in range(1, 4):
            a = KElem.of(n, 0)
            assert kelem_valuation(ZZ, a**k, m) == k * kelem_valuation(ZZ, a, m)


class TestKElem:
    def test_inverse(self):
        x = KElem(Fraction(3, 4), Fraction(-2, 5))
        y = x * x.inverse()
        assert y == KElem.of(1, 0)

    def test_pow_negative(self):
        x = KElem.of(1, 2)
        assert x**3 * x**-3 == KElem.of(1, 0)

    def test_valuation_of_fraction(self):
        p, _ = maximal_ideals_above(ZI, 5)
        x = KElem(Fraction(1, 5), Fraction(0))
        assert kelem_valuation(ZI, x, p) == -1


# A reference model of K: a pair of Fractions (re, im), with the textbook
# formulas.  KElem must agree with it on every operation.
rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40)
kvalues = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))
nonzero_kvalues = kvalues.filter(lambda v: v != (0, 0))


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def model_str(x):
    re, im = x
    if im == 0:
        return str(re)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


def assert_matches(k, x):
    assert (k.re, k.im) == x
    assert k.d > 0
    assert math.gcd(k.a, k.b, k.d) == 1


class TestKElemAgainstModel:
    @given(kvalues, kvalues)
    @settings(max_examples=300)
    def test_ring_operations(self, x, y):
        kx, ky = KElem(*x), KElem(*y)
        assert_matches(kx, x)
        assert_matches(kx + ky, (x[0] + y[0], x[1] + y[1]))
        assert_matches(kx - ky, (x[0] - y[0], x[1] - y[1]))
        assert_matches(-kx, (-x[0], -x[1]))
        assert_matches(kx * ky, model_mul(x, y))
        assert kx.is_zero() == (x == (0, 0))

    @given(kvalues, nonzero_kvalues)
    @settings(max_examples=300)
    def test_division_and_inverse(self, x, y):
        kx, ky = KElem(*x), KElem(*y)
        assert_matches(ky.inverse(), model_inverse(y))
        assert_matches(kx / ky, model_mul(x, model_inverse(y)))
        with pytest.raises(ZeroDivisionError):
            kx / KElem(0, 0)
        with pytest.raises(ZeroDivisionError):
            KElem(0, 0).inverse()

    @given(nonzero_kvalues, st.integers(-5, 5))
    @settings(max_examples=200)
    def test_power(self, x, k):
        want = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            want = model_mul(want, x)
        if k < 0:
            want = model_inverse(want)
        assert_matches(KElem(*x) ** k, want)

    @given(kvalues, kvalues)
    @settings(max_examples=300)
    def test_equality_and_hash(self, x, y):
        kx, ky = KElem(*x), KElem(*y)
        assert (kx == ky) == (x == y)
        assert (kx != ky) == (x != y)
        # the same value reached another way has the same hash
        again = (kx + ky) - ky
        assert again == kx and hash(again) == hash(kx)
        assert len({kx, again, KElem.of(*x)}) == 1

    @given(kvalues)
    @settings(max_examples=300)
    def test_int_pair_and_str(self, x):
        # the numerator a + b*i is a Gaussian integer, the denominator d a
        # positive integer
        k = KElem(*x)
        num, den = KElem.of(k.a, k.b), k.d
        assert den > 0 and num.d == 1
        assert math.gcd(num.a, num.b, den) == 1
        assert num / KElem.of(den) == k
        assert (Fraction(k.a, den), Fraction(k.b, den)) == x
        assert str(k) == model_str(x)

    def test_immutable(self):
        k = KElem(Fraction(3, 4), Fraction(-2, 5))
        for name in ("a", "b", "d", "re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(k, name, 1)
        with pytest.raises(AttributeError):
            del k.a
        assert (k.a, k.b, k.d) == (15, -8, 20)
        assert copy.deepcopy(k) == k and pickle.loads(pickle.dumps(k)) == k


class TestFractionalIdeal:
    def test_product_and_inverse(self):
        p, q = maximal_ideals_above(ZI, 5)
        a = FractionalIdealR.from_factors(ZI, {p: 2, q: -1})
        assert valuation(a * a ** -1, p) == 0
        assert (a * a).factors == FractionalIdealR.from_factors(ZI, {p: 4, q: -2}).factors

    def test_principality(self):
        p, q = maximal_ideals_above(ZI, 5)
        ideal = FractionalIdealR.from_factors(ZI, {p: 1, q: 1})
        gen = principal_generator(ideal)
        assert FractionalIdealR.principal(ZI, gen) == ideal
        assert gen == normalize_scalar(ZI, KElem.of(5, 0)) or gen == KElem.of(5, 0)
        # PID base: everything principal
        one = FractionalIdealR.from_factors(ZI, {p: 1})
        assert FractionalIdealR.principal(ZI, principal_generator(one)) == one

    def test_principal_refuses_a_fraction(self):
        # 1/2 has a unit numerator: without the check it would give the unit ideal
        with pytest.raises(RingError, match=r"^1/2 is not an element of the ring$"):
            FractionalIdealR.principal(ZI, KElem(Fraction(1, 2)))
