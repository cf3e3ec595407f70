import math
import random
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import pytest

from bridgeforge import freeness, sl2_oracle
from bridgeforge.freeness import (
    MAX_SYLLABLES,
    UnsupportedCaseError,
    alternating_cs_closed_form,
    alternating_relation_word,
    junction_verdicts,
    no_relation_scan,
    relation_word,
    verify_alternating_cs,
)
from bridgeforge.meridians import MeridianWords, long_meridian_words
from bridgeforge.presentation import relator
from bridgeforge.slope import GenusOneKnot
from bridgeforge.words import (
    alt_word,
    concat,
    cyclic_s_sequence,
    cyclic_seq_eq,
    free_reduce,
    inverse,
    is_alternating,
    is_cyclically_alternating,
    least_rotation,
    parse_word,
    s_sequence,
)

from grids import knots
from test_sl2_oracle import dist_pm_identity, float_image, mat_inv, mat_mul

SYLLABLES = ("x", "X", "y", "Y")


def sign_patterns(t_max):
    pats = []
    for t in range(1, t_max + 1):
        for combo in product((1, -1), repeat=2 * t):
            pats.append(tuple(zip(combo[::2], combo[1::2])))
    return pats


def test_relation_word_lengths():
    knot = GenusOneKnot(1, 1, 1)
    mw = long_meridian_words(knot)
    w = relation_word(knot, [(1, 1)])
    assert len(w) == 2 * (2 * len(mw.w_x) + 1) == 10
    w = relation_word(knot, [(2, -3)])
    assert len(w) == 4 * len(mw.w_x) + 2 + 3 == 13
    assert free_reduce(w) == w


def test_relation_word_validation():
    knot = GenusOneKnot(1, 1, 1)
    with pytest.raises(ValueError):
        relation_word(knot, [])
    with pytest.raises(ValueError):
        relation_word(knot, [(0, 1)])


def test_relation_word_matches_alternating_for_unit_exponents():
    for m, n, sign in ((1, 1, 1), (2, 1, -1), (1, 2, 1), (2, 2, -1)):
        knot = GenusOneKnot(m, n, sign)
        for pattern in sign_patterns(2):
            w = relation_word(knot, pattern)
            w_alt = alternating_relation_word(pattern, long_meridian_words(knot))
            assert least_rotation(w) == least_rotation(w_alt)
            assert is_cyclically_alternating(w_alt)


def test_alternating_word_length():
    for m, n, sign in ((1, 1, 1), (3, 2, -1)):
        knot = GenusOneKnot(m, n, sign)
        mw = long_meridian_words(knot)
        for t in (1, 2):
            w = alternating_relation_word([(1, 1)] * t, mw)
            assert len(w) == t * (2 * (2 * len(mw.w_x) + 1))
            cs = cyclic_s_sequence(w)
            assert sum(cs) == len(w)


def test_closed_form_frozen_examples():
    assert cyclic_seq_eq(
        cyclic_s_sequence(alternating_relation_word([(1, 1)], long_meridian_words(GenusOneKnot(1, 1, 1)))),
        (2, 2, 1, 2, 2, 1),
    )
    assert cyclic_seq_eq(
        alternating_cs_closed_form(GenusOneKnot(2, 1, -1), [(1, 1)]),
        (4, 1, 2, 4, 1, 2),
    )
    assert cyclic_seq_eq(
        alternating_cs_closed_form(GenusOneKnot(1, 2, -1), [(1, 1)]),
        (2, 2, 3, 2, 2, 3),
    )
    # mixed signs shift the blocks of 2's around the 3's
    assert cyclic_seq_eq(
        alternating_cs_closed_form(GenusOneKnot(1, 2, -1), [(1, -1)]),
        (2, 2, 3, 2, 3, 2),
    )


def test_closed_form_unsupported_case():
    with pytest.raises(UnsupportedCaseError):
        alternating_cs_closed_form(GenusOneKnot(1, 1, -1), [(1, 1)])


def test_closed_form_matches_computed_sweep():
    for knot in knots(3):
        mw = long_meridian_words(knot)
        for pattern in sign_patterns(2):
            cs = cyclic_s_sequence(alternating_relation_word(pattern, mw))
            if not knot.is_hyperbolic:
                assert all(t in (2, 3, 4) for t in cs)
            else:
                closed = alternating_cs_closed_form(knot, pattern)
                assert cyclic_seq_eq(cs, closed)
            assert verify_alternating_cs(junction_verdicts(knot, mw), pattern)


def composed_cs(pattern, mw):
    """The pattern's junction blocks laid end to end, the cyclic junction
    first: the sequence the checks compare block by block."""
    factors = [g * e for ex, ey in pattern for g, e in ((1, ex), (2, ey))]
    blocks = mw.junction_blocks
    return sum((blocks[g, f] for g, f in zip(factors[-1:] + factors[:-1], factors)), ())


def random_patterns(rng, t_max, per_t):
    return [[(rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(t)]
            for t in range(4, t_max + 1) for _ in range(per_t)]


def test_runs_match_word_on_grid():
    # the junction blocks against the letter-by-letter word, 12x12 grid:
    # every pattern with t <= 3 and seeded random patterns with t <= 8
    rng = random.Random(11)
    for knot in knots(12):
        mw = long_meridian_words(knot)
        for pattern in sign_patterns(3) + random_patterns(rng, 8, 2):
            word = alternating_relation_word(pattern, mw)
            assert composed_cs(pattern, mw) == cyclic_s_sequence(word), (knot, pattern)


def test_literal_closed_form_matches_the_rotation_oracle():
    # the closed form is written at the rotation the junction blocks
    # fix; the comparison modulo rotation is the oracle it replaced
    # (12x12 grid, every pattern with t <= 3)
    for knot in knots(12):
        if not knot.is_hyperbolic:
            continue
        mw = long_meridian_words(knot)
        for pattern in sign_patterns(3):
            cs = composed_cs(pattern, mw)
            closed = alternating_cs_closed_form(knot, pattern)
            assert cyclic_seq_eq(cs, closed)
            assert cs == closed


def test_closed_form_is_the_blocks_of_its_factors():
    # block by block: the junction block into x_l^e or y_l^e is
    # closed_form_block(knot, e) whatever factor precedes it, and the
    # pattern's closed form is those blocks in order
    for knot in knots(12):
        if not knot.is_hyperbolic:
            continue
        blocks = long_meridian_words(knot).junction_blocks
        assert len(blocks) == 8
        for (g, f), block in blocks.items():
            assert block == freeness.closed_form_block(knot, 1 if f > 0 else -1)
        for pattern in sign_patterns(2):
            assert alternating_cs_closed_form(knot, pattern) == sum(
                (freeness.closed_form_block(knot, e) for pair in pattern for e in pair), ())


def hand_built(x_l, y_l):
    return MeridianWords(None, (), (), tuple(x_l), tuple(y_l))


def stand_in(x_l, y_l):
    """The factors alone, for alternating_relation_word, which reads x_l
    and y_l only: MeridianWords refuses bad factors at construction."""
    return SimpleNamespace(x_l=tuple(x_l), y_l=tuple(y_l))


def outcome(fn, mw, pattern):
    try:
        return fn(pattern, mw)
    except AssertionError as exc:
        return str(exc)


MESSAGE = "sign-pattern word failed to be alternating"


def test_runs_raise_as_the_word_does():
    # x_l = aB and y_l = bAb, two runs or more each, leave a junction of
    # two b-letters in every pattern; a factor aab is not alternating on
    # its own.  MeridianWords refuses both at construction, so no block
    # or pattern check sees them, and every pattern's word refuses them
    for x_l, y_l in ((parse_word("aB"), parse_word("bAb")),
                     (parse_word("aab"), parse_word("ab"))):
        with pytest.raises(AssertionError, match=MESSAGE):
            hand_built(x_l, y_l)
        for pattern in sign_patterns(2):
            with pytest.raises(AssertionError, match=MESSAGE):
                alternating_relation_word(pattern, stand_in(x_l, y_l))


def test_blocks_refuse_factors_with_fewer_than_two_runs():
    # the word of x_l = aba (one run) and y_l = bAb is cyclically
    # alternating, but in it the run of x_l spans two junctions: y_l ends
    # and starts with b, so b aba b is one run.  An empty factor leaves
    # the other's junctions back to back.  MeridianWords refuses both
    for x_l, y_l in ((parse_word("aba"), parse_word("bAb")),
                     (parse_word("bAb"), parse_word("aba")),
                     ((), parse_word("aB")),
                     (parse_word("aB"), ())):
        assert is_cyclically_alternating(alternating_relation_word([(1, 1)], stand_in(x_l, y_l)))
        with pytest.raises(AssertionError, match=MESSAGE):
            hand_built(x_l, y_l)


def valid_factors(x_l, y_l):
    """The blocks' precondition, read off the words: x_l and y_l nonempty
    and alternating with two runs or more, and every junction of two
    generators, which the four patterns with t = 1 cover."""
    if not all(w and is_alternating(w) and len(s_sequence(w)) >= 2 for w in (x_l, y_l)):
        return False
    return all(not isinstance(outcome(alternating_relation_word, stand_in(x_l, y_l), [pair]), str)
               for pair in product((1, -1), repeat=2))


def test_runs_match_word_on_hand_built_factors():
    # arbitrary short factors over a, A, b, B: valid ones give the
    # reference's cyclic S-sequence for every pattern, rotated by one when
    # the cyclic junction keeps two runs, and invalid ones are refused at
    # construction
    rng = random.Random(12)
    letters = (1, -1, 2, -2)
    kinds = set()
    for _ in range(600):
        factors = (
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))),
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))),
        )
        if not valid_factors(*factors):
            with pytest.raises(AssertionError, match=MESSAGE):
                hand_built(*factors)
            kinds.add("invalid")
            continue
        mw = hand_built(*factors)
        for pattern in rng.sample(sign_patterns(3), 10) + random_patterns(rng, 8, 1):
            word = alternating_relation_word(pattern, mw)
            ref = cyclic_s_sequence(word)
            merged = (word[0] > 0) == (word[-1] > 0)
            assert composed_cs(pattern, mw) == (ref if merged else ref[-1:] + ref[:-1])
            kinds.add(merged)
    assert kinds == {"invalid", True, False}


def test_inverse_runs_match_the_inverse_words():
    # junction_blocks walks x_l and y_l only and derives the runs of their
    # inverses; each block (g, f) must be read off the word G F itself,
    # inverses built letter by letter: the runs from G's last run to the
    # one before F's last.  On the 12x12 grid and on the valid ones of
    # 600 hand-built alternating factor pairs, whose runs may be palindromes
    rng = random.Random(14)
    letters = (1, -1, 2, -2)
    mws = [long_meridian_words(knot) for knot in knots(12)]

    def factor():
        return alt_word(rng.choice(letters), [rng.randint(1, 3) for _ in range(rng.randint(2, 4))])

    hand = [(factor(), factor()) for _ in range(600)]
    mws += [hand_built(*factors) for factors in hand if valid_factors(*factors)]
    palindromes = set()
    for mw in mws:
        words = {1: mw.x_l, -1: inverse(mw.x_l), 2: mw.y_l, -2: inverse(mw.y_l)}
        for (g, f), block in mw.junction_blocks.items():
            runs = s_sequence(concat(words[g], words[f]))
            assert block == runs[len(s_sequence(words[g])) - 1:-1], (mw.x_l, mw.y_l, g, f)
        palindromes.add(s_sequence(mw.x_l) == s_sequence(mw.x_l)[::-1])
    assert palindromes == {True, False}


def test_runs_reject_bad_signs():
    knot = GenusOneKnot(1, 1, 1)
    mw = long_meridian_words(knot)
    for pattern in ([], [(1, 2)], [(0, 1)]):
        with pytest.raises(ValueError):
            verify_alternating_cs(junction_verdicts(knot, mw), pattern)


def test_forbidden_terms_by_case():
    plus, minus, one = (long_meridian_words(GenusOneKnot(*k)) for k in ((2, 2, 1), (3, 2, -1), (1, 3, -1)))
    for pattern in sign_patterns(2):
        cs = cyclic_s_sequence(alternating_relation_word(pattern, plus))
        assert all(t < 5 for t in cs)  # no term >= 2m + 1
        cs = cyclic_s_sequence(alternating_relation_word(pattern, minus))
        assert all(t != 5 for t in cs)  # no term = 2m - 1
        cs = cyclic_s_sequence(alternating_relation_word(pattern, one))
        assert all(t != 1 for t in cs)  # no isolated letters


def letter_forbidden_terms_ok(knot, cs):
    """forbidden_terms_ok term by term, as the facts read."""
    m, n = knot.m, knot.n
    if knot.sign > 0:
        return all(t < 2 * m + 1 for t in cs)
    if m >= 2:
        return all(t != 2 * m - 1 for t in cs)
    if n >= 2:
        return all(t != 1 for t in cs)
    return all(t in (2, 3, 4) for t in cs)


def test_forbidden_terms_match_the_term_loop():
    # the sequences of every sign pattern with t <= 2 on the 12x12 grid,
    # each with one term moved to a random value, and random sequences
    # (empty ones too) over the terms each case forbids or allows
    rng = random.Random(41)
    verdicts = set()
    for knot in knots(12):
        m, n, sign = knot
        mw = long_meridian_words(knot)
        seqs = [(), (2 * m + 1,), (2 * m - 1,), (1,), (5,)]
        for pattern in sign_patterns(2):
            cs = composed_cs(pattern, mw)
            i = rng.randrange(len(cs))
            seqs += [cs, cs[:i] + (rng.randint(0, 2 * m + 2),) + cs[i + 1:]]
        seqs += [tuple(rng.randint(0, 2 * m + 2) for _ in range(rng.randint(1, 6)))
                 for _ in range(10)]
        for cs in seqs:
            verdict = freeness.forbidden_terms_ok(knot, cs)
            assert verdict is letter_forbidden_terms_ok(knot, cs), (knot, cs)
            case = "+" if sign > 0 else "m" if m >= 2 else "n" if n >= 2 else "1, 1"
            verdicts.add((case, verdict))
    assert len(verdicts) == 8  # both verdicts in each of the four cases


@dataclass
class FloatScan:
    roots: list
    max_residual: float
    dropped_roots: list
    words_checked: int
    min_distance: float
    hits: list  # (word, omega, distance), in root order
    roots_scanned: int


def _float_walk(mw, rep, max_syllables, tol, best):
    """Every word of the scan at one float root: (words walked, the
    running minimum distance updated from best, hits as (word, distance)).

    The flat explicit-stack walk: a word costs one 2x2 product with its
    parent's image.  Both maxima of dist_pm_identity are at least
    max(|b|, |c|) and division is monotone, so a word whose
    max(|b|, |c|) / scale already reaches the running minimum and exceeds
    tol can change neither; the rest of its distance is skipped."""
    x = float_image(mw.x_l, rep.omega)
    y = float_image(mw.y_l, rep.omega)
    gens = (x, mat_inv(x), y, mat_inv(y))
    nxt = [[(j, *gens[j]) for j in range(4) if j != i ^ 1] for i in range(4)]
    stack = [(i, 1, *gens[i]) for i in range(4)]
    path = [0]
    hits = []
    count = 0
    while stack:
        i, depth, a, b, c, d = stack.pop()
        count += 1
        path[depth - 1] = i
        abs_b = abs(b)
        abs_c = abs(c)
        # nested as in dist_pm_identity, so a nan entry gives the same scale
        scale = max(1.0, max(abs(a), abs_b, abs_c, abs(d)))
        bound = max(abs_b, abs_c) / scale
        if not (bound >= best and bound > tol):
            plus = max(abs(a - 1), abs_b, abs_c, abs(d - 1))
            minus = max(abs(a + 1), abs_b, abs_c, abs(d + 1))
            dist = min(plus, minus) / scale
            if dist < best:
                best = dist
            if dist <= tol:
                hits.append(("".join(SYLLABLES[k] for k in path[:depth]), dist))
        if depth < max_syllables:
            depth += 1
            if depth > len(path):
                path.append(0)
            for j, e, f, g, h in nxt[i]:
                stack.append((j, depth, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
    return count, best, hits


def float_scan(knot, max_syllables, tol=1e-3):
    """The float matrix scan, kept as the margins oracle: every word at
    every root of numeric_reps, within tol of +-I a hit.

    numeric_reps returns conjugate roots as exact conjugates, and at
    conj(w) every word's image is the entrywise conjugate of its image at
    w, at the same distance bit for bit.  So a root with imag < 0 whose
    exact conjugate is also a root is not walked: it takes its
    conjugate's hits, each with its own omega.  words_checked counts
    words per root."""
    mw = long_meridian_words(knot)
    reps = sl2_oracle.numeric_reps(sl2_oracle.riley_polynomials(knot.fraction), tol=1e-9)
    at = {rep.omega: rep for rep in reps}
    walked = {}  # walked root -> its hits
    best = float("inf")
    hits = []
    words = 0
    for rep in reps:
        omega = rep.omega
        source = omega.conjugate() if omega.imag < 0 and omega.conjugate() in at else omega
        if source not in walked:
            words, best, walked[source] = _float_walk(mw, at[source], max_syllables, tol, best)
        hits += [(word, omega, dist) for word, dist in walked[source]]
    return FloatScan(
        roots=[rep.omega for rep in reps],
        max_residual=max(rep.residual for rep in reps),
        dropped_roots=list(reps.dropped),
        words_checked=words,
        min_distance=best,
        hits=hits,
        roots_scanned=len(walked),
    )


def scan(knot, max_syllables, mw=None):
    """no_relation_scan of knot, with its Riley polynomials and, unless
    given, its long meridian words built here."""
    if mw is None:
        mw = long_meridian_words(knot)
    return no_relation_scan(max_syllables, mw, sl2_oracle.riley_polynomials(knot.fraction))


def test_no_relation_scan_small():
    knot = GenusOneKnot(1, 1, 1)
    report = scan(knot, 4)
    assert report.clean
    assert report.words_checked == report.words_nontrivial == 4 * (1 + 3 + 9 + 27)
    assert len(report.roots) == 1
    margins = float_scan(knot, 4)
    assert margins.max_residual < 1e-9
    assert margins.min_distance > 1e-3
    assert len(margins.roots) == 2


def test_no_relation_scan_negative_slope():
    knot = GenusOneKnot(2, 1, -1)
    report = scan(knot, 4)
    assert report.clean and float_scan(knot, 4).min_distance > 1e-3


def stack_scan(knot, max_syllables, tol=1e-3):
    """The matrix scan as it was before the flat loop, kept as the oracle:
    a stack of (letter, image, label) tuples, one mat_mul and one
    dist_pm_identity per word.  Returns (words per root, min distance,
    hits as (word, omega, distance))."""
    mw = long_meridian_words(knot)
    data = sl2_oracle.riley_polynomials(knot.fraction)
    reps = sl2_oracle.numeric_reps(data, tol=1e-9)
    syllables = SYLLABLES
    min_distance = float("inf")
    hits = []
    for rep in reps:
        x = float_image(mw.x_l, rep.omega)
        y = float_image(mw.y_l, rep.omega)
        gens = (x, mat_inv(x), y, mat_inv(y))
        stack = [(i, gens[i], syllables[i]) for i in range(4)]
        count = 0
        while stack:
            idx, mat, label = stack.pop()
            count += 1
            dist = dist_pm_identity(mat)
            if dist < min_distance:
                min_distance = dist
            if dist <= tol:
                hits.append((label, rep.omega, dist))
            if len(label) < max_syllables:
                for j in range(4):
                    if j == idx ^ 1:
                        continue  # x after X (and friends) is not reduced
                    stack.append(
                        (j, mat_mul(mat, gens[j]), label + syllables[j])
                    )
    return count, min_distance, hits


@pytest.mark.parametrize("m,n,sign,max_syllables,tol", [
    # the scan knots of the numeric_reps benchmark workload
    (1, 1, 1, 6, 1e-3),
    (1, 2, -1, 6, 1e-3),
    (2, 1, -1, 6, 1e-3),
    (1, 2, 1, 6, 1e-3),
    (2, 1, 1, 6, 1e-3),
    # 16/63: 16 float hits at the small real root w ~ 0.079
    (2, 8, -1, 8, 1e-3),
    # a tol so large that the lower-bound skip must still keep every hit
    (1, 1, 1, 4, 0.9),
])
def test_scan_matches_stack_oracle(m, n, sign, max_syllables, tol):
    knot = GenusOneKnot(m, n, sign)
    margins = float_scan(knot, max_syllables, tol)
    words, min_distance, hits = stack_scan(knot, max_syllables, tol)
    assert margins.words_checked == words == 2 * (3 ** max_syllables - 1)
    assert margins.min_distance == min_distance
    assert margins.hits == hits
    if (m, n) == (2, 8):
        assert len(hits) == 16
    if tol == 0.9:
        assert hits
    # the exact scan walks the same words once and proves each nontrivial,
    # the float oracle's hits included
    report = scan(knot, max_syllables)
    assert report.words_checked == words
    assert report.clean and report.words_nontrivial == words


def word_walk(gens, modulus, max_syllables):
    """The word walk the class walk replaced, kept as the oracle of both
    the walk and the search: every word of the scan over Z/modulus, in
    pre-order, (words walked, the words whose image is +-I, as tuples of
    syllable indices).

    An image in SL2 with b = c = 0 and a = d is +-I, since then a^2 = 1
    and the modulus is a power of an odd prime (sl2_oracle.modular_rep).
    The children of a word one syllable short of the limit are leaves:
    each is tested in place, from its b entry first, and never stacked.
    """
    nxt = [[(j, *gens[j]) for j in range(4) if j != i ^ 1] for i in range(4)]
    leaves = [row[::-1] for row in nxt]  # in the order the stack would pop them
    stack = [(i, 1, *gens[i]) for i in range(4)]
    pop, push = stack.pop, stack.append
    path = [0] * max_syllables  # path[k]: the syllable at depth k + 1
    suspects = []
    count = 0
    while stack:
        i, depth, a, b, c, d = pop()
        count += 1
        path[depth - 1] = i
        if not b and not c and a == d:
            suspects.append(tuple(path[:depth]))
        if depth == max_syllables:
            continue
        if depth + 1 < max_syllables:
            depth += 1
            for j, e, f, g, h in nxt[i]:
                push((j, depth, (a * e + b * g) % modulus, (a * f + b * h) % modulus,
                      (c * e + d * g) % modulus, (c * f + d * h) % modulus))
            continue
        count += 3
        for j, e, f, g, h in leaves[i]:
            if (a * f + b * h) % modulus or (c * e + d * g) % modulus:
                continue
            if (a * e + b * g) % modulus == (c * f + d * h) % modulus:
                suspects.append((*path[:depth], j))
    return count, suspects


def class_walk(gens, modulus, max_syllables):
    """The prenecklace walk the meet-in-the-middle search replaced, kept
    as its oracle: the least rotation of each cyclically reduced word of
    the scan over Z/modulus, in pre-order, (classes walked, those at +-I
    as tuples of syllable indices).  The prenecklace tree of Ruskey,
    Savage and Wang (J. Algorithms 13, 1992) over x < X < y < Y without
    adjacent i, i^1: a node of depth t with Lyndon prefix length p has
    the children j >= path[t - p] (nxt[i][path[t - p]]), which keep p at
    that bound and take p = t + 1 above it.  It is a class when p divides
    t and its last syllable is not the inverse of its first.  The
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


def reduced_words(max_syllables):
    """Every freely reduced nonempty scan word, as a tuple of syllable indices."""
    words = frontier = [(i,) for i in range(4)]
    for _ in range(max_syllables - 1):
        frontier = [w + (j,) for w in frontier for j in range(4) if j != w[-1] ^ 1]
        words = words + frontier
    return words


def scan_class(word):
    """The class the scan tests for a reduced word: the least rotation, in
    syllable index order, of its cyclic core."""
    while len(word) > 1 and word[0] == word[-1] ^ 1:
        word = word[1:-1]
    return min(word[k:] + word[:k] for k in range(len(word)))


def covered(cls, max_syllables):
    """The words of the scan whose class is cls: r 3^((K - |cls|) // 2),
    r the number of distinct rotations of cls."""
    rotations = {cls[k:] + cls[:k] for k in range(len(cls))}
    return len(rotations) * 3 ** ((max_syllables - len(cls)) // 2)


def syllables(word):
    return "".join(SYLLABLES[i] for i in word)


IDENTITY = [(1, 0, 0, 1)] * 4


@pytest.mark.parametrize("k", range(1, 8))
def test_class_walk_tests_each_class_once(k):
    # with every image I, each class the walk tests is a suspect, so the
    # suspects are the classes: one per cyclic core up to rotation over
    # every reduced word, by brute force, each once
    classes, suspects = class_walk(IDENTITY, 3, k)
    assert len(set(suspects)) == len(suspects) == classes
    assert set(suspects) == {scan_class(w) for w in reduced_words(k)}
    assert all(scan_class(c) == c for c in suspects)


@pytest.mark.parametrize("k", range(1, 11))
def test_classes_cover_every_word(k):
    # a class c covers r 3^((K - |c|) // 2) words, and the classes cover
    # all 2(3^K - 1); words_nontrivial subtracts the same count per hit
    classes, suspects = freeness._pm_identity_classes(IDENTITY, 3, k)
    words = 2 * (3 ** k - 1)
    assert sum(covered(c, k) for c in suspects) == words
    if k == 8:
        assert classes == 1_386
    hits = [syllables(c) for c in suspects]
    report = freeness.ScanReport(k, [], words, classes, hits)
    assert report.words_nontrivial == 0
    assert report._replace(hits=hits[1:]).words_nontrivial == covered(suspects[0], k)


def at_its_prime(rep):
    """The pair cut down to its prime l: modulus l, alpha mod l."""
    return rep._replace(modulus=rep.prime, alpha=rep.alpha % rep.prime)


def image(word, gens, modulus):
    """The image over Z/modulus of a word of syllable indices."""
    a, b, c, d = 1, 0, 0, 1
    for i in word:
        e, f, g, h = gens[i]
        a, b, c, d = (a * e + b * g) % modulus, (a * f + b * h) % modulus, \
            (c * e + d * g) % modulus, (c * f + d * h) % modulus
    return a, b, c, d


def exact_gens(knot):
    """The scan's images at the knot's exact pair, and its modulus."""
    rep = sl2_oracle.modular_rep(sl2_oracle.riley_polynomials(knot.fraction))
    return freeness._images(long_meridian_words(knot), rep), rep.modulus


def trefoil_gens_mod_3():
    """The trefoil's pair cut down to its prime 3, where many words map
    to +-I by coincidence."""
    knot = GenusOneKnot(1, 1, -1)
    rep = at_its_prime(sl2_oracle.modular_rep(sl2_oracle.riley_polynomials(knot.fraction)))
    assert rep.modulus == 3
    return freeness._images(long_meridian_words(knot), rep)


@pytest.mark.parametrize("k,words,classes", [(5, 36, 10), (6, 124, 30), (8, 1_152, 134)])
def test_class_walk_suspects_are_the_classes_of_the_word_walks(k, words, classes):
    # the classes at +-I are those of the words at +-I
    gens = trefoil_gens_mod_3()
    walked, word_suspects = word_walk(gens, 3, k)
    assert walked == 2 * (3 ** k - 1) and len(word_suspects) == words
    _, class_suspects = class_walk(gens, 3, k)
    assert len(class_suspects) == classes
    assert set(class_suspects) == {scan_class(w) for w in word_suspects}


@pytest.mark.parametrize("k", range(1, 11))
def test_search_matches_the_walk_at_identity_and_mod_3(k):
    # every class at +-I (IDENTITY), and the trefoil's classes at +I and
    # at -I mod 3 (782 at K = 10), in the walk's order
    assert freeness._pm_identity_classes(IDENTITY, 3, k) == class_walk(IDENTITY, 3, k)
    gens = trefoil_gens_mod_3()
    classes, suspects = class_walk(gens, 3, k)
    assert freeness._pm_identity_classes(gens, 3, k) == (classes, suspects)
    at_minus_identity = sum(image(c, gens, 3) == (2, 0, 0, 2) for c in suspects)
    assert (at_minus_identity > 0) == (k >= 4)
    if k == 10:
        assert (len(suspects), at_minus_identity) == (782, 384)


@pytest.mark.parametrize("m,n,sign", knots(4))
def test_search_matches_the_walk_at_the_exact_pair(m, n, sign):
    gens, modulus = exact_gens(GenusOneKnot(m, n, sign))
    for k in range(1, 11):
        assert freeness._pm_identity_classes(gens, modulus, k) == class_walk(gens, modulus, k)


def test_class_count_is_burnside():
    # the count needs no walk: up to K = 12 it is the walk's, and at the
    # cap it is the 4,181,926 classes the walk took about 3 s to count
    gens, modulus = exact_gens(GenusOneKnot(2, 1, -1))
    for k in range(1, 13):
        assert freeness._pm_identity_classes(gens, modulus, k)[0] == class_walk(gens, modulus, k)[0]
    assert freeness._pm_identity_classes(gens, modulus, MAX_SYLLABLES) == (4_181_926, [])


def test_scan_rejects_fewer_than_one_syllable():
    knot = GenusOneKnot(1, 1, 1)
    assert scan(knot, 1).words_checked == 4
    for k in (0, -1):
        with pytest.raises(ValueError, match="max_syllables must be at least 1"):
            scan(knot, k)


def test_scan_rejects_more_syllables_than_the_cap(monkeypatch):
    # rejected before the search, whose tables grow as 3^(K/2)
    monkeypatch.setattr(freeness, "_pm_identity_classes", None)
    for k in (MAX_SYLLABLES + 1, 10 * MAX_SYLLABLES):
        with pytest.raises(ValueError, match=f"max_syllables must be at least 1 and at most 16, got {k}"):
            scan(GenusOneKnot(1, 1, 1), k)


@pytest.mark.parametrize("m,n,sign,walked", [
    (1, 1, 1, 1), (1, 2, -1, 2), (2, 1, -1, 2), (1, 2, 1, 2), (2, 1, 1, 2),
])
def test_scan_walks_one_root_per_conjugate_pair(m, n, sign, walked):
    margins = float_scan(GenusOneKnot(m, n, sign), 3)
    assert margins.roots_scanned == walked
    assert margins.roots_scanned == sum(z.imag >= 0 for z in margins.roots)
    assert margins.dropped_roots == []


@pytest.mark.parametrize("m,n,sign", [(2, 1, 1), (1, 2, -1)])
def test_scan_walks_a_lone_lower_root(monkeypatch, m, n, sign):
    # numeric_reps loses the upper root of the pair with the largest
    # imaginary part, so its lower root has no partner and is walked itself
    found = sl2_oracle.numeric_reps

    def without_upper_root(data, tol=1e-9):
        reps = found(data, tol)
        top = max(reps, key=lambda rep: rep.omega.imag)
        return sl2_oracle.NumericReps([rep for rep in reps if rep is not top], reps.dropped)

    monkeypatch.setattr(sl2_oracle, "numeric_reps", without_upper_root)
    knot = GenusOneKnot(m, n, sign)
    margins = float_scan(knot, 4, 0.9)
    words, min_distance, hits = stack_scan(knot, 4, 0.9)
    lone = min(margins.roots, key=lambda z: z.imag)
    assert lone.imag < 0 and lone.conjugate() not in margins.roots
    assert margins.roots_scanned == sum(z.imag >= 0 for z in margins.roots) + 1
    assert margins.words_checked == words
    assert margins.min_distance == min_distance
    assert margins.hits == hits
    assert any(omega == lone for _, omega, _ in margins.hits)


@pytest.mark.parametrize("m,n,sign", [(2, 8, -1), (8, 4, -1)])
def test_exact_scan_settles_the_float_false_fails(m, n, sign):
    # 16/63 and 8/127: the float scan finds 16 words within 1e-3 of +-I at
    # a small real root; mod l none of the 13,120 words is +-I
    knot = GenusOneKnot(m, n, sign)
    report = scan(knot, 8)
    assert report.words_checked == report.words_nontrivial == 13_120
    assert report.classes_checked == 1_386
    assert report.clean
    # the word walk, the oracle, finds no word at +-I either
    (rep,) = report.roots
    gens = freeness._images(long_meridian_words(knot), rep)
    assert word_walk(gens, rep.modulus, 8) == (13_120, [])


def syllable_word(mw, word):
    """The a/b word of a scan word over x, X, y, Y."""
    factors = {"x": mw.x_l, "X": inverse(mw.x_l), "y": mw.y_l, "Y": inverse(mw.y_l)}
    return concat(*(factors[s] for s in word))


def is_pm_identity(mat):
    a, b, c, d = mat
    return not b and not c and a == d


def test_trivial_words_map_to_identity():
    # x_l u x_l^-1 is trivial in G, so its image is I under every pair;
    # x_l and y_l themselves are not +-I
    for params in ((1, 1, 1), (2, 1, -1), (2, 8, -1)):
        knot = GenusOneKnot(*params)
        mw = long_meridian_words(knot)
        data = sl2_oracle.riley_polynomials(knot.fraction)
        rep = sl2_oracle.modular_rep(data)
        u = relator(data.fraction).u
        word = concat(mw.x_l, u, inverse(mw.x_l))
        assert sl2_oracle.modular_image(word, rep) == (1, 0, 0, 1)
        for w in (mw.x_l, mw.y_l):
            assert not is_pm_identity(sl2_oracle.modular_image(w, rep))


def float_word_distances(knot, mw, max_syllables):
    """Every scan word with its smallest distance from +-I over the float
    roots, by one dist_pm_identity per word and root."""
    reps = sl2_oracle.numeric_reps(sl2_oracle.riley_polynomials(knot.fraction), tol=1e-9)
    words = {}
    for rep in reps:
        gens = {}
        for s in SYLLABLES:
            gens[s] = float_image(syllable_word(mw, s), rep.omega)
        stack = [(s, gens[s]) for s in SYLLABLES]
        while stack:
            word, mat = stack.pop()
            words[word] = min(words.get(word, math.inf), dist_pm_identity(mat))
            if len(word) < max_syllables:
                for s in SYLLABLES:
                    if s != word[-1].swapcase():
                        stack.append((word + s, mat_mul(mat, gens[s])))
    return words


def test_float_margins_agree_with_the_exact_images():
    # m, n <= 4 at K = 5: every word the float oracle puts more than 1e-3
    # from +-I at every root is nontrivial mod l at the scan's pair
    for knot in knots(4):
        mw = long_meridian_words(knot)
        rep = sl2_oracle.modular_rep(sl2_oracle.riley_polynomials(knot.fraction))
        distances = float_word_distances(knot, mw, 5)
        assert len(distances) == 2 * (3 ** 5 - 1)
        for word, dist in distances.items():
            if dist > 1e-3:
                image = sl2_oracle.modular_image(syllable_word(mw, word), rep)
                assert not is_pm_identity(image), (knot, word)
        assert scan(knot, 5, mw).clean


def test_words_at_identity_under_the_cut_pair_are_hits(monkeypatch):
    # the trefoil's pair cut down to its prime 3, where 36 of the 484
    # words map to +-I by coincidence, in 10 classes: the scan decides
    # each class under that one pair, so each is a hit, its witness its
    # representative, and the hits cover exactly those 36 words
    real = sl2_oracle.modular_rep
    monkeypatch.setattr(sl2_oracle, "modular_rep", lambda data: at_its_prime(real(data)))
    knot = GenusOneKnot(1, 1, -1)
    mw = long_meridian_words(knot)
    report = scan(knot, 5, mw)
    (rep,) = report.roots
    assert rep.prime == rep.modulus == 3
    assert len(report.hits) == 10 and not report.clean
    assert report.words_checked == 2 * (3 ** 5 - 1) and report.words_nontrivial == 448
    for hit in report.hits:
        assert is_pm_identity(sl2_oracle.modular_image(syllable_word(mw, hit), rep))
    # the hits are the classes of the word walk's 36 words
    _, words = word_walk(freeness._images(mw, rep), 3, 5)
    assert len(words) == 36 == report.words_checked - report.words_nontrivial
    assert sorted(report.hits) == sorted({syllables(scan_class(w)) for w in words})


def test_first_pair_proves_every_word_on_the_8x8_grid():
    # every knot with m, n <= 8 at K = 6: no class is a hit, and the word
    # walk under the same pair finds no word at +-I; at K = 12 the search
    # finds no class at +-I either
    for knot in knots(8):
        mw = long_meridian_words(knot)
        report = scan(knot, 6, mw)
        assert report.words_checked == 2 * (3 ** 6 - 1)
        assert report.hits == [], knot
        (rep,) = report.roots
        gens = freeness._images(mw, rep)
        assert word_walk(gens, rep.modulus, 6) == (report.words_checked, []), knot
        assert freeness._pm_identity_classes(gens, rep.modulus, 12)[1] == [], knot


def test_words_at_identity_under_every_pair_are_hits():
    # x_l = y_l = a, a stand-in that MeridianWords would refuse (the scan
    # reads x_l and y_l only): a word maps to a^k, k its exponent sum,
    # which is I exactly when k = 0, under every pair.  The classes of
    # those words are the hits, each with the scan's one pair as its
    # witness, and together they cover exactly the balanced words
    mw = stand_in(parse_word("a"), parse_word("a"))
    report = scan(GenusOneKnot(1, 1, 1), 4, mw)
    exponent = (1, -1, 1, -1)
    balanced = [w for w in reduced_words(4) if sum(exponent[i] for i in w) == 0]
    classes = {syllables(scan_class(w)) for w in balanced}
    assert sorted(report.hits) == sorted(classes)
    assert not report.clean
    assert report.words_nontrivial == report.words_checked - len(balanced)
    (rep,) = report.roots
    for hit in report.hits:
        assert sl2_oracle.modular_image(syllable_word(mw, hit), rep) == (1, 0, 0, 1)
