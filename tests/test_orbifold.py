import pytest

from bridgeforge.orbifold import (
    arc_class,
    homology_order,
    standard_arcs_proper,
    subgroup_verdict,
)
from bridgeforge.slope import INFINITY, Frac


def test_homology_order():
    assert homology_order(Frac(2, 5)) == 5
    assert homology_order(Frac(4, 15)) == 15
    assert homology_order(Frac(1, 1)) == 1


def test_arc_class():
    assert arc_class(Frac(1, 3), 15).value == 3
    assert arc_class(Frac(1, 5), 15).value == 5
    assert arc_class(INFINITY, 15).value == 0
    assert arc_class(Frac(7, 18), 15).value == 3


def test_subgroup_verdicts():
    v = subgroup_verdict(Frac(1, 3), Frac(4, 15))
    assert (v.order_in_homology, v.dihedral_image_order, v.proper) == (5, 10, True)
    v = subgroup_verdict(Frac(1, 5), Frac(4, 15))
    assert (v.order_in_homology, v.dihedral_image_order, v.proper) == (3, 6, True)
    v = subgroup_verdict(Frac(1, 1), Frac(4, 15))
    assert (v.order_in_homology, v.proper) == (15, False)


def test_proper_subgroup_sweep():
    assert standard_arcs_proper(2)
    assert all(standard_arcs_proper(m) for m in range(2, 21))
    with pytest.raises(ValueError):
        standard_arcs_proper(1)


def test_verdict_orders_multiply_to_p():
    for m in range(2, 51):
        r = Frac(2 * m, 4 * m * m - 1)
        v1 = subgroup_verdict(Frac(1, 2 * m - 1), r)
        v2 = subgroup_verdict(Frac(1, 2 * m + 1), r)
        assert v1.order_in_homology * v2.order_in_homology == r.den
