"""Long meridian pair words and their closed alternating forms.

The Wirtinger generators c_i of a double-twist knot diagram reduce to
alternating words in the two-bridge generator pair {a, b}; the long
meridian pair (x_l, y_l) arises by conjugating a^1 resp. b^-1 with
explicit alternating words w_x, w_y.  This module constructs both sides
of that story independently: the raw conjugate words coming from the
Wirtinger relations, and the closed forms assembled from initial letters
plus S-sequences.  verify_meridian_forms checks that they agree, and
MeridianWords.junction_blocks cuts every sign-pattern word in x_l^+-1,
y_l^+-1 into the eight blocks the freeness checks compare.
"""

from __future__ import annotations

import functools

from .slope import GenusOneKnot
from .words import (
    Word,
    alt_power,
    alt_word,
    apply_f,
    concat,
    free_reduce,
    inverse,
    is_alternating,
    is_reduced,
    s_sequence,
)

_A, _B = (1,), (2,)
_AI, _BI = (-1,), (-2,)


def c_word(i: int, m: int) -> Word:
    """Wirtinger generator c_i of the 2m-twist region as an alternating word.

    Defined for -m <= i <= m+1, with c_1 = a and c_0 = b^-1.
    """
    if not -m <= i <= m + 1:
        raise ValueError(f"index {i} out of range [-{m}, {m + 1}]")
    if i == 0:
        return _BI
    if i >= 1:
        if i % 2 == 0:
            w = concat(alt_power(_AI, _BI, i), alt_power(_A, _B, i - 1))
        else:
            w = concat(alt_power(_AI, _BI, i - 1), alt_power(_A, _B, i))
    else:
        j = -i
        if j % 2 == 0:
            w = concat(alt_power(_B, _A, j), alt_power(_BI, _AI, j + 1))
        else:
            w = concat(alt_power(_B, _A, j + 1), alt_power(_BI, _AI, j))
    if not (is_reduced(w) and is_alternating(w)):
        raise AssertionError(f"c_{i} failed to be reduced alternating")
    return w


def d0_d1(knot: GenusOneKnot) -> tuple[Word, Word]:
    """The twist-region meridian words (d0, d1) = (c_m, c_-m), swapped
    when the slope has negative sign."""
    cm = c_word(knot.m, knot.m)
    c_neg = c_word(-knot.m, knot.m)
    return (cm, c_neg) if knot.sign > 0 else (c_neg, cm)


def long_meridian_raw(knot: GenusOneKnot, d0: Word, d1: Word) -> Word:
    """The unreduced conjugate word for y_l from the Wirtinger relations,
    with (d0, d1) = d0_d1(knot).

    For even m the conjugator is the alternating product of (d1, d0^-1)
    with n factors, for odd m of (d1^-1, d0); y_l conjugates b^-1 by it.
    """
    if knot.m % 2 == 0:
        core = alt_power(d1, inverse(d0), knot.n)
    else:
        core = alt_power(inverse(d1), d0, knot.n)
    return concat(core, _BI, inverse(core))


class MeridianWords:
    """The long meridian pair (x_l, y_l) of a knot and its conjugators
    (w_x, w_y), with the words derived from them built on first read.
    runs holds the S-sequences of x_l and y_l, split once here.  x_l and
    y_l must be alternating (so reduced), of two runs or more, and end in
    letters of different generators: junction_blocks relies on it."""

    def __init__(self, knot: GenusOneKnot, w_x: Word, w_y: Word, x_l: Word, y_l: Word):
        self.runs = tuple(s_sequence(w) if w else () for w in (x_l, y_l))
        if not all(is_alternating(w) and len(r) >= 2 for w, r in zip((x_l, y_l), self.runs)) \
                or {abs(x_l[0]), abs(x_l[-1])} & {abs(y_l[0]), abs(y_l[-1])}:
            raise AssertionError("sign-pattern word failed to be alternating")
        self.knot = knot
        self.w_x = w_x
        self.w_y = w_y
        self.x_l = x_l
        self.y_l = y_l

    @functools.cached_property
    def d0_d1(self) -> tuple[Word, Word]:
        """d0_d1(knot), built on first use: only the raw Wirtinger word of
        verify_meridian_forms and the meridians payload read them."""
        return d0_d1(self.knot)

    @functools.cached_property
    def junction_blocks(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The runs of every sign-pattern word x_l^e1 y_l^f1 ... in eight
        blocks.  The factors are named as letters: 1, -1, 2, -2 for x_l,
        x_l^-1, y_l, y_l^-1.  Block (g, f), for g and f of different
        generators, is the junction's runs followed by the inner runs of f:
        the last run of g and the first run of f, one run when their
        letters share a sign.  The constructor's checks make every junction
        join letters of different generators, so no run spans two
        junctions, and the cyclic S-sequence of any pattern is its blocks
        laid end to end, the cyclic junction first.  Only the runs of x_l
        and y_l are read: inversion reverses a word's runs and turns its
        ends (f, l) into (-l, -f)."""
        ends = {}
        for g, w, runs in zip((1, 2), (self.x_l, self.y_l), self.runs):
            ends[g], ends[-g] = (w[0], w[-1], runs), (-w[-1], -w[0], runs[::-1])
        blocks = {}
        for g, (_, last, g_runs) in ends.items():
            for f, (first, _, f_runs) in ends.items():
                if abs(g) == abs(f):
                    continue
                merged = (last > 0) == (first > 0)
                junction = (g_runs[-1] + f_runs[0],) if merged else (g_runs[-1], f_runs[0])
                blocks[g, f] = junction + f_runs[1:-1]
        return blocks


def _conjugator_runs(knot: GenusOneKnot) -> tuple[int, ...]:
    """S-sequence of w_x and w_y (zero-length blocks dropped)."""
    m, n = knot.m, knot.n
    if knot.sign > 0:
        runs = [m] + [2 * m] * (n - 1) + [m]
    elif m >= 2:
        runs = [m] + [2 * m] * (n - 1) + [m - 1]
    else:
        runs = [1] + [2] * (n - 1)
    return tuple(r for r in runs if r > 0)


def _power_s_table(knot: GenusOneKnot) -> tuple[int, ...]:
    """Expected S-sequence of x_l^eps (and y_l^eps) with eps = (-1)^n."""
    m, n = knot.m, knot.n
    if knot.sign > 0:
        mid = [m, m + 1]
        sides = [2 * m] * (n - 1)
        runs = [m] + sides + mid + sides + [m]
    elif m >= 2:
        mid = [m, m - 1]
        sides = [2 * m] * (n - 1)
        runs = [m] + sides + mid + sides + [m]
    elif n >= 2:
        runs = [1] + [2] * (n - 1) + [3] + [2] * (n - 2) + [1]
    else:
        runs = [1, 2]
    return tuple(r for r in runs if r > 0)


def long_meridian_words(knot: GenusOneKnot) -> MeridianWords:
    """Closed-form meridian words, cross-validated during construction.

    w_y is the alternating word with initial letter b (positive sign
    slope) or a^-1 (negative sign slope) and the closed-form S-sequence;
    w_x is its image under the a -> b^-1, b -> a^-1 symmetry.  The long
    meridians are x_l = w_x a w_x^-1 and y_l = w_y b^-1 w_y^-1, which are
    validated to be alternating (by MeridianWords), to swap under the
    symmetry, and to have the tabulated S-sequences for x_l^((-1)^n):
    inversion reverses runs, so for odd n their runs read it backwards.
    """
    runs = _conjugator_runs(knot)
    wy_initial = 2 if knot.sign > 0 else -1
    w_y = alt_word(wy_initial, runs)
    w_x = apply_f(w_y)
    x_l = concat(w_x, _A, inverse(w_x))
    y_l = concat(w_y, _BI, inverse(w_y))
    if apply_f(y_l) != x_l:
        raise AssertionError("meridian pair does not swap under the symmetry")
    mw = MeridianWords(knot, w_x, w_y, x_l, y_l)
    table = _power_s_table(knot)[::(-1) ** knot.n]
    if mw.runs != (table, table):
        raise AssertionError("meridian S-sequence table mismatch")
    return mw


def verify_meridian_forms(knot: GenusOneKnot, mw: MeridianWords) -> bool:
    """Raw Wirtinger reduction vs closed forms, plus the power identity.

    Checks free_reduce(raw y_l) == closed-form y_l, the f-symmetry
    x_l = f(y_l), and that x_l (resp. y_l) freely reduces to the reduced
    alternating word w_x a w_x^-1 (resp. w_y b^-1 w_y^-1).  That gives
    the identity for every k != 0.  For k = -1: the word x_l^-1 is the
    inverse of x_l, free_reduce commutes with inverse, and inversion
    keeps a word reduced and alternating, so x_l^-1 reduces to
    (w_x a w_x^-1)^-1 = w_x a^-1 w_x^-1.  For |k| >= 2: free reduction
    is confluent, so x_l^k reduces as (w_x a^+-1 w_x^-1)^|k| does, to
    w_x a^k w_x^-1, which is reduced because w_x a^+-1 is, and holds aa.
    mw is long_meridian_words(knot).
    """
    if free_reduce(long_meridian_raw(knot, *mw.d0_d1)) != mw.y_l:
        return False
    if apply_f(mw.y_l) != mw.x_l:
        return False
    for base, conj, letter in ((mw.x_l, mw.w_x, 1), (mw.y_l, mw.w_y, -2)):
        formal = concat(conj, (letter,), inverse(conj))
        if free_reduce(base) != formal or not (is_reduced(formal) and is_alternating(formal)):
            return False
    return True
