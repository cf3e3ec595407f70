"""The knot grids and slope lists that the tests walk, and the builds that
several tests read, each made once per session.

knots(size) is the m, n <= size grid of genus-one knots, m outermost and
the sign + before -, the order every grid test and every seeded draw
along a grid relies on.  symmetrized_sets(size) pairs each of them with
a fresh SymmetrizedSet of its relator, which a test may change.

relator, riley_polynomials and aberth_iterates are memoized for the
session.  Each returns an immutable value (tuples, and records of
tuples), computed by the real function bound when this module is
imported.  Those functions look up their helpers at call time, so a test
that monkeypatches what one of them calls (presentation.inverse,
sl2_oracle.relator, sl2_oracle._riley_value, ...) calls the library
function itself, never the memo.
"""

import functools
import math

from bridgeforge import presentation, sl2_oracle
from bridgeforge.slope import Frac, GenusOneKnot
from bridgeforge.smallcancel import SymmetrizedSet

relator = functools.cache(presentation.relator)
riley_polynomials = functools.cache(sl2_oracle.riley_polynomials)
_all_roots = sl2_oracle._all_roots


@functools.cache
def aberth_iterates(f):
    """sl2_oracle._all_roots at the Riley polynomial of f, as a tuple."""
    data = riley_polynomials(f)
    return tuple(_all_roots(data.relator.u_hat, data.poly))


def knots(size):
    """GenusOneKnot(m, n, sign) for m, n <= size and sign +1, -1."""
    return [GenusOneKnot(m, n, sign)
            for m in range(1, size + 1) for n in range(1, size + 1) for sign in (1, -1)]


def symmetrized_sets(size):
    """Each knot of knots(size) with a new SymmetrizedSet of its relator."""
    for knot in knots(size):
        yield knot, SymmetrizedSet(relator(knot.fraction).u)


def even_fractions(p_max):
    """Every slope q/p in lowest terms with q even and 0 < q < p <= p_max,
    by p, then q."""
    return [Frac(q, p) for p in range(3, p_max + 1, 2) for q in range(2, p, 2) if math.gcd(q, p) == 1]


def genus_one_fractions(p_max):
    """The slopes of the hyperbolic genus-one knots with p <= p_max, by p,
    then q."""
    slopes = {knot.fraction for knot in knots(p_max) if knot.p <= p_max and knot.is_hyperbolic}
    return sorted(slopes, key=lambda f: (f.den, f.num))
