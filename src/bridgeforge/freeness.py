"""Word-level core of the no-relation argument for the long meridian pair.

A hypothetical relation x_l^k1 y_l^l1 ... x_l^kt y_l^lt = 1 is
represented by an explicit cyclically reduced word; its sign pattern
determines a cyclically alternating word whose cyclic S-sequence has an
exact closed form.  The forbidden-term facts extracted from that closed
form are what the small-cancellation contradiction consumes.  The
no-relation scan proves every short word in the long meridian pair
nontrivial by the image of its cyclic core's rotation class in
SL2(Z/l^k) under an exact parabolic representation.

The checks compose that S-sequence from the runs of the four factors
x_l^+-1, y_l^+-1 (x_l and y_l validated once, their inverses' runs
derived from theirs), and check only the junctions between factors
(alternating_cs_from_runs); alternating_relation_word
builds the whole word letter by letter and is the reference it is
tested against.  The closed form is written at the composition's rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sl2_oracle
from .meridians import MeridianWords, long_meridian_words
from .slope import GenusOneKnot
from .words import (
    Word,
    concat,
    free_reduce,
    inverse,
    is_cyclically_alternating,
    is_cyclically_reduced,
    letter_power,
)


class UnsupportedCaseError(ValueError):
    """No closed form exists for this input; use the bound check instead."""


def relation_word(knot: GenusOneKnot, exponent_pairs) -> Word:
    """The cyclically reduced word x_l^k1 y_l^l1 ... for nonzero exponents.

    Assembled as w_x a^k1 w_x^-1 w_y b^-l1 w_y^-1 ...; by construction no
    free reduction may occur, and a violation raises.
    """
    pairs = [(int(k), int(l)) for k, l in exponent_pairs]
    if not pairs or any(k == 0 or l == 0 for k, l in pairs):
        raise ValueError("exponents must be nonzero and the pattern nonempty")
    mw = long_meridian_words(knot)
    parts = []
    for k, l in pairs:
        parts += [mw.w_x, letter_power(1, k), inverse(mw.w_x)]
        parts += [mw.w_y, letter_power(-2, l), inverse(mw.w_y)]
    w = concat(*parts)
    if free_reduce(w) != w or not is_cyclically_reduced(w):
        raise AssertionError("relation word unexpectedly reduced")
    return w


def _checked_signs(sign_pairs) -> list[tuple[int, int]]:
    signs = [(int(ex), int(ey)) for ex, ey in sign_pairs]
    if not signs or any(abs(ex) != 1 or abs(ey) != 1 for ex, ey in signs):
        raise ValueError("sign pattern entries must be +-1")
    return signs


def alternating_relation_word(sign_pairs, mw: MeridianWords) -> Word:
    """The cyclically alternating word x_l^e1x y_l^e1y ... for signs +-1,
    in the long meridian words mw.  This is the letter-by-letter
    reference for alternating_cs_from_runs.
    """
    signs = _checked_signs(sign_pairs)
    parts = []
    for ex, ey in signs:
        parts.append(mw.x_l if ex == 1 else inverse(mw.x_l))
        parts.append(mw.y_l if ey == 1 else inverse(mw.y_l))
    w = concat(*parts)
    if not (is_cyclically_reduced(w) and is_cyclically_alternating(w)):
        raise AssertionError("sign-pattern word failed to be alternating")
    return w


def alternating_cs_from_runs(sign_pairs, mw: MeridianWords) -> tuple[int, ...]:
    """cyclic_s_sequence(alternating_relation_word(sign_pairs, mw)),
    composed from the factors' runs without building the word.

    x_l and y_l are checked and their S-sequences taken once per
    MeridianWords, and those of x_l^-1, y_l^-1 derived from them
    (MeridianWords.factor_runs).  A pattern then checks
    only its junctions, the cyclic one from the last factor to the first
    included: the word is cyclically alternating, and so cyclically
    reduced, exactly when its factors are and no junction joins two
    letters of one generator.  The factors' runs are concatenated, the
    two runs at a junction merge when its letters have one sign, and the
    first and last runs merge as in cyclic_s_sequence.  The cost is
    O(runs), not O(letters), per pattern.
    """
    signs = _checked_signs(sign_pairs)
    x_runs, y_runs = mw.factor_runs
    factors = [f for ex, ey in signs for f in (x_runs[ex], y_runs[ey])]
    runs: list[int] = []
    prev = factors[-1][1]  # the last letter before the first factor, cyclically
    for first, last, seq, ok in factors:
        if not ok or abs(prev) == abs(first):
            raise AssertionError("sign-pattern word failed to be alternating")
        if runs and (prev > 0) == (first > 0):
            runs[-1] += seq[0]
            runs += seq[1:]
        else:
            runs += seq
        prev = last
    if len(runs) >= 2 and (factors[0][0] > 0) == (prev > 0):
        runs[0] += runs.pop()
    return tuple(runs)


def alternating_cs_closed_form(knot: GenusOneKnot, sign_pairs) -> tuple[int, ...]:
    """Exact closed form of the cyclic S-sequence of the sign-pattern word.

    Per factor (in order x_1, y_1, x_2, y_2, ...) the contribution is n
    2m-blocks, an oriented pair and n - 1 more 2m-blocks: the rotation
    alternating_cs_from_runs composes, where the end runs m, m of x_l^+-1
    merge at each junction.  The pair is (m, m+1) for positive slope sign,
    (m, m-1) for negative sign with m >= 2, reversed when the factor
    exponent differs from (-1)^n.  The m = 1 negative family contributes
    asymmetric blocks of 2's around a 3 and has no closed form at all for
    (m, n) = (1, 1).
    """
    m, n = knot.m, knot.n
    eps = 1 if n % 2 == 0 else -1
    flat = [e for pair in sign_pairs for e in pair]
    if not flat:
        raise ValueError("empty sign pattern")
    out: list[int] = []
    if knot.sign > 0 or m >= 2:
        pair_eps = [m, m + 1] if knot.sign > 0 else [m, m - 1]
        for e in flat:
            out += [2 * m] * n + (pair_eps if e == eps else pair_eps[::-1]) + [2 * m] * (n - 1)
    elif n >= 2:
        for e in flat:
            left = n - 1 if e == eps else n - 2
            right = n - 2 if e == eps else n - 1
            out += [2] * (1 + left) + [3] + [2] * right
    else:
        raise UnsupportedCaseError(
            "no closed form for the (1, 1, -) slope; terms lie in {2, 3, 4}"
        )
    return tuple(out)


def forbidden_terms_ok(knot: GenusOneKnot, cs) -> bool:
    """The forbidden-term facts for a sign-pattern word's cyclic
    S-sequence cs: below 2m + 1 for sign +, never 2m - 1 for sign - with
    m >= 2, never 1 for (1, n >= 2, -), and in {2, 3, 4} for (1, 1, -)."""
    m, n = knot.m, knot.n
    if knot.sign > 0:
        return max(cs, default=0) < 2 * m + 1
    if m >= 2:
        return 2 * m - 1 not in cs
    if n >= 2:
        return 1 not in cs
    return {2, 3, 4}.issuperset(cs)


def verify_alternating_cs(knot: GenusOneKnot, sign_pairs, mw: MeridianWords) -> bool:
    """Computed cyclic S-sequence (alternating_cs_from_runs with mw) vs
    closed form, literally, plus forbidden terms.

    For the (1, 1, -) slope only the membership bound {2, 3, 4} applies.
    """
    cs = alternating_cs_from_runs(sign_pairs, mw)
    if knot.is_hyperbolic and cs != alternating_cs_closed_form(knot, sign_pairs):
        return False
    return forbidden_terms_ok(knot, cs)


@dataclass
class RetriedWord:
    """A class representative at +-I under the scan's pair, with every pair
    it was evaluated under (the scan's first) and whether the last one
    proves it nontrivial.  One that is not is a hit, the pairs its witness."""

    word: str
    pairs: list[sl2_oracle.ModularRep]
    nontrivial: bool


@dataclass
class ScanReport:
    knot: GenusOneKnot
    max_syllables: int
    # the one pair the walk ran at: alpha, a root of the Riley polynomial
    # mod l^k, the largest power of the least suitable odd prime l at
    # most 2^30 (sl2_oracle.modular_rep)
    roots: list[sl2_oracle.ModularRep]
    words_checked: int
    classes_checked: int
    retried: list[RetriedWord] = field(default_factory=list)

    @property
    def hits(self) -> list[RetriedWord]:
        """The class representatives that map to +-I under every pair tried."""
        return [r for r in self.retried if not r.nontrivial]

    @property
    def words_nontrivial(self) -> int:
        """The words whose cyclic core is no rotation of a hit: a class c
        with r = (c + c).find(c, 1) rotations covers r 3^((K - |c|) // 2)."""
        return self.words_checked - sum(
            (c + c).find(c, 1) * 3 ** ((self.max_syllables - len(c)) // 2)
            for c in (hit.word for hit in self.hits))

    @property
    def clean(self) -> bool:
        return not self.hits


_SYLLABLES = ("x", "X", "y", "Y")
# 86,093,440 words in 4,181,926 classes, about 2.2 s in CPython 3.11 on a
# shared AMD EPYC core; the cap also bounds the path _class_walk allocates
MAX_SYLLABLES = 16
# exact pairs a class is evaluated under before it counts as a hit
_PAIRS = 3


def _images(mw: MeridianWords, rep: sl2_oracle.ModularRep):
    """The images of x_l, x_l^-1, y_l, y_l^-1 over Z/modulus, in syllable order."""
    modulus = rep.modulus
    out = []
    for word in (mw.x_l, mw.y_l):
        a, b, c, d = sl2_oracle.modular_image(word, rep)
        out += [(a, b, c, d), (d, -b % modulus, -c % modulus, a)]
    return out


def _class_walk(gens, modulus: int, max_syllables: int):
    """The least rotation of each cyclically reduced word of the scan over
    Z/modulus, in pre-order: (classes walked, those at +-I as tuples of
    syllable indices).  The prenecklace tree of Ruskey, Savage and Wang
    (J. Algorithms 13, 1992) over x < X < y < Y without adjacent i, i^1:
    a node of depth t with Lyndon prefix length p has the children
    j >= path[t - p] (nxt[i][path[t - p]]), which keep p at that bound
    and take p = t + 1 above it.  It is a class when p divides t and its
    last syllable is not the inverse of its first.  b = c = 0 and a = d
    is +-I: a^2 = 1 and the modulus is a power of an odd prime.  The
    children at depth K are tested in place, b entry first, never stacked.
    """
    nxt = [[[(j, j == lo, *gens[j]) for j in range(lo, 4) if j != i ^ 1] for lo in range(4)]
           for i in range(4)]
    leaves = [[row[::-1] for row in rows] for rows in nxt]  # in pop order
    stack = [(i, 1, 1, *gens[i]) for i in range(4)]
    pop, push = stack.pop, stack.append
    path = [0] * max_syllables  # path[k]: the syllable at depth k + 1
    suspects = []
    classes = 0
    while stack:
        i, t, p, a, b, c, d = pop()
        path[t - 1] = i
        if not t % p and i ^ 1 != path[0]:
            classes += 1
            if not b and not c and a == d:
                suspects.append(tuple(path[:t]))
        if t == max_syllables:
            continue
        lo = path[t - p]
        if t + 1 < max_syllables:
            t += 1
            for j, keep, e, f, g, h in nxt[i][lo]:
                push((j, t, p if keep else t, (a * e + b * g) % modulus, (a * f + b * h) % modulus,
                      (c * e + d * g) % modulus, (c * f + d * h) % modulus))
            continue
        whole, first_inv = not max_syllables % p, path[0] ^ 1
        for j, keep, e, f, g, h in leaves[i][lo]:
            if j == first_inv or keep and not whole:
                continue
            classes += 1
            if (a * f + b * h) % modulus or (c * e + d * g) % modulus:
                continue
            if (a * e + b * g) % modulus == (c * f + d * h) % modulus:
                suspects.append((*path[:t], j))
    return classes, suspects


def _is_pm_identity(word, gens, modulus: int) -> bool:
    a, b, c, d = 1, 0, 0, 1
    for i in word:
        e, f, g, h = gens[i]
        a, b, c, d = (a * e + b * g) % modulus, (a * f + b * h) % modulus, \
            (c * e + d * g) % modulus, (c * f + d * h) % modulus
    return not b and not c and a == d


def no_relation_scan(
    knot: GenusOneKnot, max_syllables: int, mw: MeridianWords, data: sl2_oracle.RileyData
) -> ScanReport:
    """Exact scan over words in the long meridian pair.

    Covers every freely reduced nonempty word in x_l^+-1, y_l^+-1 with at
    most max_syllables syllables, 2(3^K - 1) of them.  Each is v c v^-1,
    c cyclically reduced with |c| <= K, and its image is conjugate to
    that of every rotation of c, so one representative per rotation class
    is mapped to SL2(Z/l^k) by w -> alpha, a root of the Riley polynomial
    mod a power of a small odd prime l (sl2_oracle.modular_rep).  That
    map is a homomorphism of the knot group, so a class whose image is
    not +-I is proven nontrivial in the group.  A class at +-I is
    evaluated again under the pair of the next prime above, up to _PAIRS
    pairs, and is a hit when it stays at +-I under every one; its witness
    is its representative and the pairs.  mw is long_meridian_words(knot)
    and data is riley_polynomials(knot.fraction).  The classes are walked
    in pre-order on one explicit stack (_class_walk), a node one 2x2
    product mod l^k.
    """
    if not 1 <= max_syllables <= MAX_SYLLABLES:
        raise ValueError(
            f"max_syllables must be at least 1 and at most {MAX_SYLLABLES}, got {max_syllables}"
        )
    pairs = [sl2_oracle.modular_rep(data)]
    images = [_images(mw, pairs[0])]
    classes, suspects = _class_walk(images[0], pairs[0].modulus, max_syllables)
    report = ScanReport(knot, max_syllables, pairs[:1], 2 * (3 ** max_syllables - 1), classes)
    for path in suspects:
        tried, nontrivial = 1, False
        while tried < _PAIRS and not nontrivial:
            if tried == len(pairs):
                pairs.append(sl2_oracle.modular_rep(data, above=pairs[-1].prime))
                images.append(_images(mw, pairs[-1]))
            nontrivial = not _is_pm_identity(path, images[tried], pairs[tried].modulus)
            tried += 1
        word = "".join(_SYLLABLES[i] for i in path)
        report.retried.append(RetriedWord(word, pairs[:tried], nontrivial))
    return report
