from fractions import Fraction as PyFraction

import pytest

from bridgeforge.slope import (
    INFINITY,
    Frac,
    GenusOneKnot,
    parse_fraction,
    r_prime,
)

from grids import knots


class DegenerateValueError(ZeroDivisionError):
    """A continued fraction hit a zero denominator during evaluation."""


def cf_value(coeffs) -> Frac:
    """Exact value of the continued fraction 1/(a1 + 1/(a2 + ... + 1/ak)).

    Raises DegenerateValueError when any intermediate (or the final)
    division hits zero; possible for general coefficient lists, never for
    the double-twist family.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty continued fraction")
    if any(c == 0 for c in coeffs):
        raise ValueError("continued fraction coefficients must be nonzero")
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        # running value x = num/den becomes a + 1/x
        if num == 0:
            raise DegenerateValueError("zero denominator while evaluating")
        num, den = a * num + den, num
    if num == 0:
        raise DegenerateValueError("continued fraction evaluates to infinity")
    return Frac(den, num)


def cf_identity_check(m: int, n: int) -> bool:
    """Whether [2m, -2n] and [2m-1, 1, 2n-1] have the same value."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return cf_value([2 * m, -2 * n]) == cf_value([2 * m - 1, 1, 2 * n - 1])


def continued_fraction(knot: GenusOneKnot) -> list[int]:
    """The double-twist continued fraction [2m, sign * 2n] of a knot."""
    return [2 * knot.m, knot.sign * 2 * knot.n]


def oracle_cf(coeffs):
    """Independent evaluation with the stdlib Fraction type."""
    acc = PyFraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = a + 1 / acc
    return 1 / acc


def test_frac_normalization():
    assert Frac(4, 10) == Frac(2, 5)
    assert Frac(-2, -5) == Frac(2, 5)
    assert Frac(2, -5) == Frac(-2, 5)
    assert Frac(0, 7) == Frac(0, 1)
    assert Frac(-3, 0) == INFINITY == Frac(1, 0)
    assert str(INFINITY) == "1/0"
    with pytest.raises(ZeroDivisionError):
        Frac(0, 0)


def test_parse_fraction():
    assert parse_fraction("2/5") == Frac(2, 5)
    assert parse_fraction("-1/3") == Frac(-1, 3)
    assert parse_fraction("7") == Frac(7, 1)
    assert parse_fraction("1/0") == INFINITY


def test_cf_value_examples():
    assert cf_value([2, 2]) == Frac(2, 5)
    assert cf_value([4, -4]) == Frac(4, 15)
    assert cf_value([2]) == Frac(1, 2)
    with pytest.raises(DegenerateValueError):
        cf_value([1, -1])
    with pytest.raises(ValueError):
        cf_value([])
    with pytest.raises(ValueError):
        cf_value([2, 0, 2])


def test_cf_value_against_oracle():
    cases = [[2, 2], [4, -4], [3, 5, -2], [-2, 7, 4, 1], [1, 1, 1], [6, -2, 2]]
    for coeffs in cases:
        expected = oracle_cf(coeffs)
        got = cf_value(coeffs)
        assert (got.num, got.den) == (expected.numerator, expected.denominator)


def test_genus_one_fraction():
    assert GenusOneKnot(1, 1, 1).fraction == Frac(2, 5)
    assert GenusOneKnot(1, 1, -1).fraction == Frac(2, 3)
    assert GenusOneKnot(2, 3, 1).fraction == Frac(6, 25)


def test_genus_one_fraction_matches_cf_value():
    for k in knots(12):
        assert k.fraction == cf_value(continued_fraction(k))
        assert 0 < k.q < k.p


def test_from_fraction_round_trip():
    for k in knots(8):
        assert GenusOneKnot.from_fraction(k.fraction) == k
    with pytest.raises(ValueError):
        GenusOneKnot.from_fraction(Frac(1, 3))
    with pytest.raises(ValueError):
        GenusOneKnot.from_fraction(Frac(3, 5))


def test_knot_validation():
    with pytest.raises(ValueError):
        GenusOneKnot(0, 1, 1)
    with pytest.raises(ValueError):
        GenusOneKnot(1, 1, 2)
    # keywords go through the same checks as positions
    with pytest.raises(ValueError):
        GenusOneKnot(m=1, n=0, sign=1)
    with pytest.raises(ValueError):
        GenusOneKnot(m=1, n=1, sign=0)
    assert not GenusOneKnot(1, 1, -1).is_hyperbolic
    assert GenusOneKnot(1, 1, 1).is_hyperbolic
    # an immutable tuple of (m, n, sign)
    knot = GenusOneKnot(m=2, n=3, sign=-1)
    assert knot == GenusOneKnot(2, 3, -1) == (2, 3, -1)
    assert {knot: 1}[GenusOneKnot(2, 3, -1)] == 1
    assert repr(knot) == "GenusOneKnot(m=2, n=3, sign=-1)"
    with pytest.raises(AttributeError):
        knot.m = 1


def test_cf_identity_check():
    assert cf_identity_check(1, 1)
    assert cf_identity_check(2, 2)
    assert cf_identity_check(5, 3)
    assert all(cf_identity_check(m, n) for m in range(1, 9) for n in range(1, 9))


def test_r_prime_examples():
    assert r_prime(Frac(2, 5)) == Frac(3, 5)
    assert r_prime(Frac(1, 3)) == Frac(1, 3)
    assert r_prime(Frac(4, 15)) == Frac(4, 15)
    with pytest.raises(ValueError):
        r_prime(Frac(7, 5))


def test_r_prime_involution():
    for p in range(3, 40):
        for q in range(1, p):
            from math import gcd

            if gcd(p, q) != 1:
                continue
            f = Frac(q, p)
            g = r_prime(f)
            assert (f.num * g.num) % p == 1
            assert r_prime(g) == f


def test_square_one_family():
    # slopes 2m/(4m^2 - 1) have numerators that square to 1 mod p
    for m in range(1, 51):
        f = cf_value([2 * m, -2 * m])
        assert f == Frac(2 * m, 4 * m * m - 1)
        assert (f.num * f.num) % f.den == 1
        assert r_prime(f) == f
