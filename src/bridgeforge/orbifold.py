"""Dihedral quotient arithmetic for two-bridge knots.

The first homology of the double branched cover of K(q/p) is Z/p, and
the quotient of the knot group by squared meridians is the dihedral
group of order 2p.  A proper arc of slope u/v in the defining Conway
sphere contributes the homology class v mod p, so the subgroup generated
by the corresponding meridian pair lands in a dihedral subgroup of order
2 * p / gcd(p, v).  The geometric inputs (which arcs occur, their
slopes) are taken as given; this module implements only the arithmetic
consequences.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .slope import Frac


class SubgroupVerdict(NamedTuple):
    slope: Frac
    order_in_homology: int
    dihedral_image_order: int
    proper: bool


def subgroup_verdict(s: Frac, f: Frac) -> SubgroupVerdict:
    """Order data of the meridian-pair subgroup image in the dihedral
    quotient: the arc's class v mod p in Z/p has order p / gcd(p, v)."""
    p = f.den
    order = p // gcd(p, s.den)
    return SubgroupVerdict(s, order, 2 * order, order < p)


def standard_arcs(m: int) -> tuple[SubgroupVerdict, SubgroupVerdict]:
    """The verdicts of the two arc slopes 1/(2m-1) and 1/(2m+1) of the
    slope 2m/(4m^2 - 1), m >= 2: proper subgroups of orders 2m+1 and
    2m-1 respectively."""
    if m < 2:
        raise ValueError("m must be at least 2")
    r = Frac(2 * m, 4 * m * m - 1)
    return subgroup_verdict(Frac(1, 2 * m - 1), r), subgroup_verdict(Frac(1, 2 * m + 1), r)
