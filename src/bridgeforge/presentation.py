"""Two-generator relator of a two-bridge knot group and its S-sequence data.

For a slope q/p (p odd, q even) the group has presentation <a, b | u>
where

    u = a * uhat * b * uhat^-1,
    uhat = b^e1 a^e2 b^e3 ... a^e(p-1),   ei = (-1)^floor(i*q/p).

The recipe is for even q only: for odd q the word it spells is not a
relator (at 1/3 it is ababAB, whose Alexander polynomial 2t - 1 is not
symmetric), so relator refuses odd q and names the mirror slope
(p - q)/p, whose knot is the mirror image of K(q/p).  Every double-twist
slope 2n/(4mn +- 1) has an even numerator.

The relator is cyclically alternating of length 2p, starts with a and
ends with a negative letter, so no run crosses the period seam and its
runs (Relator.runs) are both its S-sequence and its cyclic S-sequence.
For double-twist slopes they are literally S1 + S2 + S1 + S2, with the
closed forms checked by verify_cs_closed_form.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

from .slope import Frac, GenusOneKnot
from .words import (
    Word,
    concat,
    inverse,
    is_cyclically_alternating,
    s_sequence,
)


def epsilon_sequence(p: int, q: int) -> tuple[int, ...]:
    """Signs (-1)^floor(i*q/p) for i = 1..p-1."""
    if p < 2 or not 0 < q < p or gcd(p, q) != 1:
        raise ValueError("need coprime 0 < q < p")
    return tuple([-1 if (i * q // p) % 2 else 1 for i in range(1, p)])


class Relator(NamedTuple):
    epsilons: tuple[int, ...]
    u_hat: Word
    u: Word
    runs: tuple[int, ...]


def relator(f: Frac) -> Relator:
    """Build the relator of q/p (p odd, q even), checked cyclically
    alternating and with no run across its period seam, and its runs."""
    q, p = f.num, f.den
    if p % 2 == 0:
        raise ValueError("even denominator is a two-bridge link, not a knot")
    eps = epsilon_sequence(p, q)  # refuses q outside (0, p) before the rule below
    if q % 2:
        raise ValueError(f"{f} has an odd numerator, which the relator recipe does not "
                         f"take, but K({f}) is K({p - q}/{p}) up to mirror image: use {p - q}/{p}")
    # uhat alternates b, a, b, a, ... with the epsilon signs
    u_hat = tuple(map(mul, eps, (2, 1) * (p // 2)))
    u = concat((1,), u_hat, (2,), inverse(u_hat))
    # two letters of different generators are never mutually inverse, so
    # a cyclically alternating word is reduced and cyclically reduced
    if len(u) != 2 * p or not is_cyclically_alternating(u):
        raise AssertionError("relator is not cyclically alternating of length 2p")
    if not u[0] > 0 > u[-1]:
        raise AssertionError("a run of the relator crosses its period seam")
    return Relator(eps, u_hat, u, s_sequence(u))


class CanonicalDecomposition(NamedTuple):
    S1: tuple[int, ...]
    S2: tuple[int, ...]


def canonical_decomposition(knot: GenusOneKnot) -> CanonicalDecomposition:
    """The closed-form S1, S2 with CS(u) = ((S1, S2, S1, S2))."""
    m, n = knot.m, knot.n
    if knot.sign > 0:
        return CanonicalDecomposition((2 * m + 1,), (2 * m,) * (2 * n - 1))
    return CanonicalDecomposition((2 * m,) * (2 * n - 1), (2 * m - 1,))


def verify_cs_closed_form(knot: GenusOneKnot, rel: Relator) -> bool:
    """The runs of the knot's relator rel (built by the caller) vs
    S1 + S2 + S1 + S2, literally: q is even, so e(p-i) = -e(i), and
    u = a uhat b uhat^-1 has the signs (+, e1, ..., e(p-1)) twice, ending
    in e(p-1) = -e1 = -.  So no runs merge, u starts with S1's first run
    and, for sign -, ends with the 2m - 1 of S2."""
    s1, s2 = canonical_decomposition(knot)
    return rel.runs == s1 + s2 + s1 + s2
