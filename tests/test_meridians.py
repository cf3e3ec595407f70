from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeforge import meridians
from bridgeforge.meridians import (
    c_word,
    d0_d1,
    long_meridian_raw,
    long_meridian_words,
    verify_meridian_forms,
)
from bridgeforge.slope import GenusOneKnot
from bridgeforge.words import (
    alt_word,
    apply_f,
    concat,
    free_reduce,
    inverse,
    is_alternating,
    letter_power,
    s_sequence,
    word_str,
)

from grids import knots


def test_c_word_examples():
    assert word_str(c_word(1, 1)) == "a"
    assert word_str(c_word(0, 1)) == "B"
    assert word_str(c_word(2, 2)) == "ABa"
    assert word_str(c_word(-1, 1)) == "baB"
    with pytest.raises(ValueError):
        c_word(3, 1)
    with pytest.raises(ValueError):
        c_word(-2, 1)


def test_d0_d1_s_sequences():
    d0, d1 = d0_d1(GenusOneKnot(1, 5, 1))
    assert word_str(d0) == "a" and word_str(d1) == "baB"
    d0, d1 = d0_d1(GenusOneKnot(2, 3, 1))
    assert s_sequence(d0) == (2, 1) and s_sequence(d1) == (2, 3)
    d0, d1 = d0_d1(GenusOneKnot(2, 3, -1))
    assert s_sequence(d0) == (2, 3) and s_sequence(d1) == (2, 1)
    # odd m: S(d0) = (m-1, m), S(d1) = (m+1, m) for the positive sign
    d0, d1 = d0_d1(GenusOneKnot(3, 1, 1))
    assert s_sequence(d0) == (2, 3) and s_sequence(d1) == (4, 3)


def test_long_meridian_raw_frozen_example():
    knot = GenusOneKnot(1, 1, 1)
    assert word_str(free_reduce(long_meridian_raw(knot, *d0_d1(knot)))) == "bABaB"


def test_closed_form_examples():
    mw = long_meridian_words(GenusOneKnot(1, 1, 1))
    assert word_str(mw.w_y) == "bA" and word_str(mw.y_l) == "bABaB"
    assert s_sequence(inverse(mw.x_l)) == (1, 1, 2, 1)

    mw = long_meridian_words(GenusOneKnot(1, 2, -1))
    assert s_sequence(mw.x_l) == (1, 2, 3, 1)

    mw = long_meridian_words(GenusOneKnot(1, 1, -1))
    assert word_str(mw.w_x) == "b" and word_str(mw.w_y) == "A"
    assert s_sequence(inverse(mw.x_l)) == (1, 2)


def test_boundary_letters():
    for m in range(1, 7):
        for n in range(1, 7):
            plus = long_meridian_words(GenusOneKnot(m, n, 1))
            eps = 1 if n % 2 == 0 else -1
            # w_x starts with a^-1 and ends with b^-eps; y_l = b ... b^-1
            assert plus.w_x[0] == -1 and plus.w_x[-1] == -2 * eps
            assert plus.w_y[0] == 2 and plus.w_y[-1] == 1 * eps
            assert plus.y_l[0] == 2 and plus.y_l[-1] == -2
            assert plus.x_l[0] == -1 and plus.x_l[-1] == 1
            minus = long_meridian_words(GenusOneKnot(m, n, -1))
            assert minus.x_l[0] == 2 and minus.x_l[-1] == -2
            assert minus.y_l[0] == -1 and minus.y_l[-1] == 1
            if m >= 2:
                assert minus.w_x[0] == 2 and minus.w_x[-1] == 2 * eps


def test_symmetry_and_shared_s_sequence():
    for knot in knots(6):
        mw = long_meridian_words(knot)
        assert apply_f(mw.y_l) == mw.x_l
        assert s_sequence(mw.w_x) == s_sequence(mw.w_y)
        assert len(mw.x_l) == 2 * len(mw.w_x) + 1


def test_power_cancellation():
    mw = long_meridian_words(GenusOneKnot(2, 2, -1))
    for k in range(-4, 5):
        if k == 0:
            continue
        power = mw.x_l * k if k > 0 else inverse(mw.x_l) * (-k)
        assert free_reduce(power + inverse(power)) == ()


def test_verify_meridian_forms_sweep():
    for knot in knots(8):
        assert verify_meridian_forms(knot, long_meridian_words(knot))


def power_loop_verdict(knot, mw, k_max=8):
    """verify_meridian_forms as it was, with the power identity checked
    for every 0 < |k| <= k_max by reducing the k-th power in full."""
    if free_reduce(meridians.long_meridian_raw(knot, *mw.d0_d1)) != mw.y_l:
        return False
    if apply_f(mw.y_l) != mw.x_l:
        return False
    for k in range(-k_max, k_max + 1):
        if k == 0:
            continue
        for base, conj, letter in ((mw.x_l, mw.w_x, 1), (mw.y_l, mw.w_y, -2)):
            formal = concat(conj, letter_power(letter, k), inverse(conj))
            power = base * k if k > 0 else inverse(base) * -k
            if free_reduce(power) != formal or free_reduce(formal) != formal:
                return False
            if is_alternating(formal) != (abs(k) == 1):
                return False
    return True


def test_unit_powers_match_the_power_loop_on_grid():
    for knot in knots(10):
        mw = long_meridian_words(knot)
        assert verify_meridian_forms(knot, mw) and power_loop_verdict(knot, mw)


reduced_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8).map(
    lambda w: free_reduce(tuple(w))
)
alternating_words = st.builds(
    lambda initial, runs: alt_word(initial, runs) if runs else (),
    st.sampled_from([1, -1, 2, -2]),
    st.lists(st.integers(1, 3), max_size=4),
)
conjugators = st.one_of(alternating_words, reduced_words)


@settings(max_examples=400)
@given(st.data())
def test_unit_powers_match_the_power_loop_on_hand_built_words(data):
    # x_l and y_l are each a conjugate w a w^-1 (w b^-1 w^-1) or a random
    # reduced word; the raw Wirtinger word is y_l, y_l with an inserted
    # cancelling pair, or random, and x_l is f(y_l) or not
    draw = data.draw
    w_y = draw(conjugators)
    w_x = draw(st.sampled_from([apply_f(w_y), draw(conjugators)]))
    y_l = draw(st.sampled_from([concat(w_y, (-2,), inverse(w_y)), draw(reduced_words)]))
    x_l = draw(st.sampled_from(
        [apply_f(y_l), concat(w_x, (1,), inverse(w_x)), draw(reduced_words)]
    ))
    cut = draw(st.integers(0, len(y_l)))
    letter = draw(st.sampled_from([1, -1, 2, -2]))
    raw = draw(st.sampled_from(
        [y_l, y_l[:cut] + (letter, -letter) + y_l[cut:], draw(reduced_words)]
    ))
    knot = GenusOneKnot(1, 1, 1)
    # MeridianWords refuses factors that are not alternating; the check
    # reads these five words and d0_d1 only
    mw = SimpleNamespace(knot=knot, w_x=w_x, w_y=w_y, x_l=x_l, y_l=y_l, d0_d1=d0_d1(knot))
    with mock.patch.object(meridians, "long_meridian_raw", lambda knot, d0, d1: raw):
        assert verify_meridian_forms(knot, mw) == power_loop_verdict(knot, mw)
