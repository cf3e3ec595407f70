"""Exact slope arithmetic.

Reduced fractions with a first-class infinity (1/0) and the (m, n, sign)
family of double-twist slopes 2n/(4mn +- 1), the continued fractions
[2m, +-2n] in the nesting 1/(a1 + 1/(a2 + ...)).  Everything is exact
integer arithmetic; no floats.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class Frac:
    """Reduced fraction num/den with den >= 0; 1/0 is the point at infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            if num == 0:
                raise ZeroDivisionError("0/0 is not a slope")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(abs(num), den)
            if g > 1:
                num //= g
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Frac is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Frac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Frac({self.num}, {self.den})"

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __add__(self, k: int) -> "Frac":
        # integer translation only; infinity is fixed
        if self.den == 0:
            return self
        return Frac(self.num + k * self.den, self.den)


INFINITY = Frac(1, 0)


def parse_fraction(text: str) -> Frac:
    """Parse ``q/p`` (or a bare integer) into a Frac; ``1/0`` is infinity."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Frac(int(num), int(den))
    return Frac(int(text), 1)


class _KnotParams(NamedTuple):
    m: int
    n: int
    sign: int


class GenusOneKnot(_KnotParams):
    """Double-twist knot parameters: slope [2m, sign*2n] = 2n/(4mn + sign).

    An immutable (m, n, sign) tuple whose constructor checks the ranges."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, sign: int) -> "GenusOneKnot":
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive integers")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, m, n, sign)

    @property
    def p(self) -> int:
        return 4 * self.m * self.n + self.sign

    @property
    def q(self) -> int:
        return 2 * self.n

    @property
    def fraction(self) -> Frac:
        return Frac(self.q, self.p)

    @property
    def is_hyperbolic(self) -> bool:
        # the (1, 1, -) slope 2/3 is the one torus knot in the family
        return not (self.m == 1 and self.n == 1 and self.sign == -1)

    @classmethod
    def from_fraction(cls, f: Frac) -> "GenusOneKnot":
        """Recover (m, n, sign) from a slope 2n/(4mn +- 1), or raise.  When
        K(f) is the knot of such a slope s/p, s one of r, p - r, r^-1 and
        p - r^-1 mod p for r = q mod p, the error names s/p instead."""
        q, p = f.num, f.den
        r = q % p if p else q
        inv = pow(r, -1, p) if 0 < r < p else 0
        for s in (r, p - r, inv, p - inv):
            n = s // 2
            for sign in (1, -1):
                if 0 < s < p and not s % 2 and not (p - sign) % (4 * n) and p - sign >= 4 * n:
                    if s == q:
                        return cls((p - sign) // (4 * n), n, sign)
                    raise ValueError(f"{f} is not 2n/(4mn +- 1), but K({f}) is K({s}/{p}) "
                                     f"up to mirror image: use {s}/{p}")
        raise ValueError(f"{f} is not a genus-one slope")

    def __str__(self):
        return f"[{2 * self.m},{self.sign * 2 * self.n}]"


def r_prime(f: Frac) -> Frac:
    """The partner slope q'/p with q q' = 1 (mod p) and 0 < q' < p."""
    q, p = f.num, f.den
    if not 0 < q < p:
        raise ValueError("slope must satisfy 0 < q < p")
    return Frac(pow(q, -1, p), p)
