import pytest

from bridgeforge.orbifold import standard_arcs, subgroup_verdict
from bridgeforge.slope import INFINITY, Frac


def test_homology_order():
    # the arc of slope 1/1 has class 1, a generator of Z/p, so its order
    # is the homology order p
    for f, p in ((Frac(2, 5), 5), (Frac(4, 15), 15), (Frac(1, 1), 1)):
        assert subgroup_verdict(Frac(1, 1), f).order_in_homology == p


def test_arc_class():
    # the arc u/v has class v mod 15, of order 15 / gcd(15, v): 1/0 has
    # class 0, and 7/18 class 3
    for s, order in ((Frac(1, 3), 5), (Frac(1, 5), 3), (INFINITY, 1), (Frac(7, 18), 5)):
        v = subgroup_verdict(s, Frac(4, 15))
        assert (v.order_in_homology, v.dihedral_image_order, v.proper) == (order, 2 * order, True)


def test_subgroup_verdicts():
    v = subgroup_verdict(Frac(1, 3), Frac(4, 15))
    assert (v.order_in_homology, v.dihedral_image_order, v.proper) == (5, 10, True)
    v = subgroup_verdict(Frac(1, 5), Frac(4, 15))
    assert (v.order_in_homology, v.dihedral_image_order, v.proper) == (3, 6, True)
    v = subgroup_verdict(Frac(1, 1), Frac(4, 15))
    assert (v.order_in_homology, v.proper) == (15, False)


def test_proper_subgroup_sweep():
    # the arcs 1/(2m - 1) and 1/(2m + 1), each verdict as subgroup_verdict
    # gives it alone: proper subgroups of orders 2m + 1 and 2m - 1
    for m in range(2, 21):
        r = Frac(2 * m, 4 * m * m - 1)
        v1, v2 = standard_arcs(m)
        assert v1 == subgroup_verdict(Frac(1, 2 * m - 1), r)
        assert v2 == subgroup_verdict(Frac(1, 2 * m + 1), r)
        assert (v1.proper, v1.order_in_homology) == (True, 2 * m + 1)
        assert (v2.proper, v2.order_in_homology) == (True, 2 * m - 1)
    with pytest.raises(ValueError):
        standard_arcs(1)


def test_verdict_orders_multiply_to_p():
    for m in range(2, 51):
        r = Frac(2 * m, 4 * m * m - 1)
        v1 = subgroup_verdict(Frac(1, 2 * m - 1), r)
        v2 = subgroup_verdict(Frac(1, 2 * m + 1), r)
        assert v1.order_in_homology * v2.order_in_homology == r.den
