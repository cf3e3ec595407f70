"""Word-level core of the no-relation argument for the long meridian pair.

A hypothetical relation x_l^k1 y_l^l1 ... x_l^kt y_l^lt = 1 is
represented by an explicit cyclically reduced word; its sign pattern
determines a cyclically alternating word whose cyclic S-sequence has an
exact closed form.  The forbidden-term facts extracted from that closed
form are what the small-cancellation contradiction consumes.  The
no-relation scan proves every short word in the long meridian pair
nontrivial by the image of its cyclic core's rotation class in
SL2(Z/l^k) under the knot's one exact parabolic representation; a class
at +-I under it is a hit.  The classes at +-I are found by meeting in
the middle over words of half the length, and the classes are counted
by Burnside's lemma, never walked.

The checks never build the word: its cyclic S-sequence is the pattern's
junction blocks laid end to end (MeridianWords.junction_blocks), and
each block has its own closed form (closed_form_block), so the eight
blocks of a knot settle every pattern of every length t at once.
alternating_relation_word builds the whole word letter by letter and is
the reference the blocks are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
    reference for MeridianWords.junction_blocks.
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


def closed_form_block(knot: GenusOneKnot, e: int) -> tuple[int, ...]:
    """Exact closed form of a junction block into a factor x_l^e or y_l^e
    (MeridianWords.junction_blocks): n 2m-blocks, an oriented pair and
    n - 1 more 2m-blocks, where the end runs m, m of the two factors have
    merged.  The pair is (m, m+1) for positive slope sign, (m, m-1) for
    negative sign with m >= 2, reversed when e differs from (-1)^n.  The
    m = 1 negative family has blocks of 2's around a 3, shifted by one
    for the other e, and no closed form at all for (m, n) = (1, 1).
    """
    m, n = knot.m, knot.n
    flip = e != (-1) ** n
    if knot.sign > 0 or m >= 2:
        pair = (m, m + 1) if knot.sign > 0 else (m, m - 1)
        return (2 * m,) * n + (pair[::-1] if flip else pair) + (2 * m,) * (n - 1)
    if n >= 2:
        return (2,) * (n - flip) + (3,) + (2,) * (n - 2 + flip)
    raise UnsupportedCaseError(
        "no closed form for the (1, 1, -) slope; terms lie in {2, 3, 4}"
    )


def alternating_cs_closed_form(knot: GenusOneKnot, sign_pairs) -> tuple[int, ...]:
    """Exact closed form of the cyclic S-sequence of the sign-pattern word:
    the closed-form blocks of its factors x_1, y_1, x_2, y_2, ... in
    order, the rotation its junction blocks give, the cyclic one first."""
    flat = [e for pair in sign_pairs for e in pair]
    if not flat:
        raise ValueError("empty sign pattern")
    return tuple(term for e in flat for term in closed_form_block(knot, e))


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
    """The sign-pattern word's cyclic S-sequence vs its closed form,
    literally, plus forbidden terms, block by block: each of the
    pattern's 2t junction blocks (mw.junction_blocks, the cyclic junction
    first) against closed_form_block of the factor it leads into.

    For the (1, 1, -) slope only the membership bound {2, 3, 4} applies.
    """
    signs = _checked_signs(sign_pairs)
    blocks = mw.junction_blocks
    factors = [(g * e, e) for ex, ey in signs for g, e in ((1, ex), (2, ey))]
    closed = {e: closed_form_block(knot, e) for e in (1, -1)} if knot.is_hyperbolic else None
    prev = factors[-1][0]
    for f, e in factors:
        block = blocks[prev, f]
        if closed and block != closed[e] or not forbidden_terms_ok(knot, block):
            return False
        prev = f
    return True


@dataclass
class ScanReport:
    max_syllables: int
    # the one pair the search ran at: alpha, a root of the Riley polynomial
    # mod l^k, the largest power of the least suitable odd prime l at
    # most 2^30 (sl2_oracle.modular_rep); a class at +-I under it is a
    # hit, its witness the class representative under that pair
    roots: list[sl2_oracle.ModularRep]
    words_checked: int
    classes_checked: int
    hits: list[str]

    @property
    def words_nontrivial(self) -> int:
        """The words whose cyclic core is no rotation of a hit: a class c
        with r = (c + c).find(c, 1) rotations covers r 3^((K - |c|) // 2)."""
        return self.words_checked - sum(
            (c + c).find(c, 1) * 3 ** ((self.max_syllables - len(c)) // 2) for c in self.hits)

    @property
    def clean(self) -> bool:
        return not self.hits


_SYLLABLES = ("x", "X", "y", "Y")
# 86,093,440 words in 4,181,926 classes, 30-50 ms in CPython 3.11 on a
# shared AMD EPYC core; the cap also bounds the half-length tables
# _pm_identity_classes builds, 4 3^7 words of length 8 at K = 16
MAX_SYLLABLES = 16


def _images(mw: MeridianWords, rep: sl2_oracle.ModularRep):
    """The images of x_l, x_l^-1, y_l, y_l^-1 over Z/modulus, in syllable order."""
    modulus = rep.modulus
    out = []
    for word in (mw.x_l, mw.y_l):
        a, b, c, d = sl2_oracle.modular_image(word, rep)
        out += [(a, b, c, d), (d, -b % modulus, -c % modulus, a)]
    return out


def _pm_identity_classes(gens, modulus: int, max_syllables: int):
    """The rotation classes of the scan at +-I over Z/modulus: (classes
    of cyclically reduced words of at most K syllables, the least
    rotations at +-I as tuples of syllable indices, x < X < y < Y).

    Meet in the middle over the reduced words of h <= ceil(K/2)
    syllables: a word L R of length 2l - 1 or 2l, |L| = l, is at +-I
    exactly when the image of L is +-(the image of R)^-1, exact in SL2,
    where -M differs from M since the modulus is odd.  The length-l words
    sit in a dict by image, so two lookups per R find every such word; a
    match is kept when it is reduced at the seam, cyclically reduced and
    its own least rotation, and the matches are sorted in the pre-order
    of the prenecklace tree with children in descending order.  The
    classes are counted by Burnside's lemma: the cyclically reduced words
    of length d number tr A^d = 3^d + 2 + (-1)^d, A the 4x4 matrix of
    allowed adjacent syllables.
    """
    half = [[((), (1, 0, 0, 1))]]
    for _ in range((max_syllables + 1) // 2):
        half.append([((*w, j), ((a * e + b * g) % modulus, (a * f + b * h) % modulus,
                                (c * e + d * g) % modulus, (c * f + d * h) % modulus))
                     for w, (a, b, c, d) in half[-1]
                     for j, (e, f, g, h) in enumerate(gens) if not w or j != w[-1] ^ 1])
    suspects = []
    for size in range(1, len(half)):
        left = {}
        for v, image in half[size]:
            left.setdefault(image, []).append(v)
        for w, (a, b, c, d) in half[size - 1] + (half[size] if 2 * size <= max_syllables else []):
            for key in ((d, -b % modulus, -c % modulus, a), (-d % modulus, b, c, -a % modulus)):
                for v in left.get(key, ()):
                    word = v + w
                    if (not w or v[-1] != w[0] ^ 1) and word[-1] != word[0] ^ 1 and all(
                            word <= word[k:] + word[:k] for k in range(1, len(word))):
                        suspects.append(word)
    suspects.sort(key=lambda word: [-s for s in word])
    classes = sum(sum(3 ** d + 2 + (-1) ** d for d in (gcd(k, t) for k in range(1, t + 1))) // t
                  for t in range(1, max_syllables + 1))
    return classes, suspects


def no_relation_scan(max_syllables: int, mw: MeridianWords, data: sl2_oracle.RileyData) -> ScanReport:
    """Exact scan over words in the long meridian pair.

    Covers every freely reduced nonempty word in x_l^+-1, y_l^+-1 with at
    most max_syllables syllables, 2(3^K - 1) of them.  Each is v c v^-1,
    c cyclically reduced with |c| <= K, and its image is conjugate to
    that of every rotation of c, so one representative per rotation class
    is mapped to SL2(Z/l^k) by w -> alpha, a root of the Riley polynomial
    mod a power of a small odd prime l (sl2_oracle.modular_rep).  That
    map is a homomorphism of the knot group, so a class whose image is
    not +-I is proven nontrivial in the group, and a class at +-I is a
    hit, its witness its representative under that one pair.  mw is the
    knot's long_meridian_words and data its riley_polynomials.  The
    classes at +-I are found by meeting in the middle
    (_pm_identity_classes), one 2x2 product mod l^k per reduced word of
    at most ceil(K/2) syllables.
    """
    if not 1 <= max_syllables <= MAX_SYLLABLES:
        raise ValueError(
            f"max_syllables must be at least 1 and at most {MAX_SYLLABLES}, got {max_syllables}"
        )
    rep = sl2_oracle.modular_rep(data)
    classes, suspects = _pm_identity_classes(_images(mw, rep), rep.modulus, max_syllables)
    hits = ["".join(_SYLLABLES[i] for i in path) for path in suspects]
    return ScanReport(max_syllables, [rep], 2 * (3 ** max_syllables - 1), classes, hits)
