import random
from itertools import product

import pytest

from bridgeforge import sl2_oracle
from bridgeforge.freeness import (
    UnsupportedCaseError,
    alternating_cs_closed_form,
    alternating_cs_from_runs,
    alternating_relation_word,
    no_relation_scan,
    relation_word,
    verify_alternating_cs,
)
from bridgeforge.meridians import MeridianWords, long_meridian_words
from bridgeforge.slope import GenusOneKnot
from bridgeforge.words import (
    cyclic_s_sequence,
    cyclic_seq_eq,
    free_reduce,
    is_cyclically_alternating,
    least_rotation,
    parse_word,
)


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
            w_alt = alternating_relation_word(knot, pattern)
            assert least_rotation(w) == least_rotation(w_alt)
            assert is_cyclically_alternating(w_alt)


def test_alternating_word_length():
    for m, n, sign in ((1, 1, 1), (3, 2, -1)):
        knot = GenusOneKnot(m, n, sign)
        mw = long_meridian_words(knot)
        for t in (1, 2):
            w = alternating_relation_word(knot, [(1, 1)] * t)
            assert len(w) == t * (2 * (2 * len(mw.w_x) + 1))
            cs = cyclic_s_sequence(w)
            assert sum(cs) == len(w)


def test_closed_form_frozen_examples():
    assert cyclic_seq_eq(
        cyclic_s_sequence(alternating_relation_word(GenusOneKnot(1, 1, 1), [(1, 1)])),
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
    for m in range(1, 4):
        for n in range(1, 4):
            for sign in (1, -1):
                knot = GenusOneKnot(m, n, sign)
                for pattern in sign_patterns(2):
                    cs = cyclic_s_sequence(
                        alternating_relation_word(knot, pattern)
                    )
                    if (m, n, sign) == (1, 1, -1):
                        assert all(t in (2, 3, 4) for t in cs)
                    else:
                        closed = alternating_cs_closed_form(knot, pattern)
                        assert cyclic_seq_eq(cs, closed)
                    assert verify_alternating_cs(knot, pattern)


def test_runs_match_word_on_grid():
    # the run composition against the letter-by-letter word, 10x10 grid:
    # every pattern with t <= 3 and seeded random patterns with t <= 6
    rng = random.Random(11)
    for m in range(1, 11):
        for n in range(1, 11):
            for sign in (1, -1):
                knot = GenusOneKnot(m, n, sign)
                mw = long_meridian_words(knot)
                patterns = sign_patterns(3) + [
                    [(rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(t)]
                    for t in range(4, 7)
                    for _ in range(4)
                ]
                for pattern in patterns:
                    word = alternating_relation_word(knot, pattern, mw)
                    assert alternating_cs_from_runs(knot, pattern, mw) == cyclic_s_sequence(word)


def hand_built(x_l, y_l):
    return MeridianWords((), (), (), (), tuple(x_l), tuple(y_l))


def outcome(fn, mw, pattern):
    try:
        return fn(GenusOneKnot(1, 1, 1), pattern, mw)
    except AssertionError as exc:
        return str(exc)


def test_runs_raise_as_the_word_does():
    # x_l = ab and y_l = bab leave a junction of two b-letters in every
    # pattern; a factor aab is not alternating on its own
    message = "sign-pattern word failed to be alternating"
    for mw in (hand_built(parse_word("ab"), parse_word("bab")),
               hand_built(parse_word("aab"), parse_word("ab"))):
        for pattern in sign_patterns(2):
            with pytest.raises(AssertionError, match=message):
                alternating_relation_word(None, pattern, mw)
            with pytest.raises(AssertionError, match=message):
                alternating_cs_from_runs(None, pattern, mw)


def test_runs_match_word_on_hand_built_factors():
    # arbitrary short factors over a, A, b, B: the two agree on the cyclic
    # S-sequence or raise the same error, pattern by pattern
    rng = random.Random(12)
    letters = (1, -1, 2, -2)
    for _ in range(300):
        mw = hand_built(
            [rng.choice(letters) for _ in range(rng.randint(1, 4))],
            [rng.choice(letters) for _ in range(rng.randint(1, 4))],
        )
        for pattern in rng.sample(sign_patterns(3), 10):
            expected = outcome(alternating_relation_word, mw, pattern)
            if not isinstance(expected, str):
                expected = cyclic_s_sequence(expected)
            assert outcome(alternating_cs_from_runs, mw, pattern) == expected


def test_runs_reject_bad_signs():
    knot = GenusOneKnot(1, 1, 1)
    for pattern in ([], [(1, 2)], [(0, 1)]):
        with pytest.raises(ValueError):
            alternating_cs_from_runs(knot, pattern)


def test_forbidden_terms_by_case():
    for pattern in sign_patterns(2):
        cs = cyclic_s_sequence(
            alternating_relation_word(GenusOneKnot(2, 2, 1), pattern)
        )
        assert all(t < 5 for t in cs)  # no term >= 2m + 1
        cs = cyclic_s_sequence(
            alternating_relation_word(GenusOneKnot(3, 2, -1), pattern)
        )
        assert all(t != 5 for t in cs)  # no term = 2m - 1
        cs = cyclic_s_sequence(
            alternating_relation_word(GenusOneKnot(1, 3, -1), pattern)
        )
        assert all(t != 1 for t in cs)  # no isolated letters


def test_no_relation_scan_small():
    report = no_relation_scan(GenusOneKnot(1, 1, 1), max_syllables=4)
    assert report.clean
    assert report.words_checked == 4 * (1 + 3 + 9 + 27)
    assert report.max_residual < 1e-9
    assert report.min_distance > 1e-3
    assert len(report.roots) == 2


def test_no_relation_scan_negative_slope():
    report = no_relation_scan(GenusOneKnot(2, 1, -1), max_syllables=4)
    assert report.clean and report.min_distance > 1e-3


def stack_scan(knot, max_syllables, tol=1e-3):
    """The matrix scan as it was before the flat loop, kept as the oracle:
    a stack of (letter, image, label) tuples, one mat_mul and one
    dist_pm_identity per word.  Returns (words per root, min distance,
    hits as (word, omega, distance))."""
    mw = long_meridian_words(knot)
    data = sl2_oracle.riley_polynomials(knot.fraction)
    reps = sl2_oracle.numeric_reps(data, tol=1e-9)
    syllables = ("x", "X", "y", "Y")
    min_distance = float("inf")
    hits = []
    for rep in reps:
        x = sl2_oracle.evaluate(mw.x_l, rep)
        y = sl2_oracle.evaluate(mw.y_l, rep)
        gens = (x, sl2_oracle.mat_inv(x), y, sl2_oracle.mat_inv(y))
        stack = [(i, gens[i], syllables[i]) for i in range(4)]
        count = 0
        while stack:
            idx, mat, label = stack.pop()
            count += 1
            dist = sl2_oracle.dist_pm_identity(mat)
            if dist < min_distance:
                min_distance = dist
            if dist <= tol:
                hits.append((label, rep.omega, dist))
            if len(label) < max_syllables:
                for j in range(4):
                    if j == idx ^ 1:
                        continue  # x after X (and friends) is not reduced
                    stack.append(
                        (j, sl2_oracle.mat_mul(mat, gens[j]), label + syllables[j])
                    )
    return count, min_distance, hits


@pytest.mark.parametrize("m,n,sign,max_syllables,tol", [
    # the scan knots of the numeric_reps benchmark workload
    (1, 1, 1, 6, 1e-3),
    (1, 2, -1, 6, 1e-3),
    (2, 1, -1, 6, 1e-3),
    (1, 2, 1, 6, 1e-3),
    (2, 1, 1, 6, 1e-3),
    # 16/63: 16 hits at the small real root w ~ 0.079
    (2, 8, -1, 8, 1e-3),
    # a tol so large that the lower-bound skip must still keep every hit
    (1, 1, 1, 4, 0.9),
])
def test_scan_matches_stack_oracle(m, n, sign, max_syllables, tol):
    knot = GenusOneKnot(m, n, sign)
    report = no_relation_scan(knot, max_syllables, tol)
    words, min_distance, hits = stack_scan(knot, max_syllables, tol)
    assert report.words_checked == words == 2 * (3 ** max_syllables - 1)
    assert report.min_distance == min_distance
    assert [(h.word, h.omega, h.distance) for h in report.hits] == hits
    if (m, n) == (2, 8):
        assert len(hits) == 16
    if tol == 0.9:
        assert hits


def test_scan_rejects_fewer_than_one_syllable():
    knot = GenusOneKnot(1, 1, 1)
    assert no_relation_scan(knot, 1).words_checked == 4
    for k in (0, -1):
        with pytest.raises(ValueError, match="max_syllables must be at least 1"):
            no_relation_scan(knot, k)


@pytest.mark.parametrize("m,n,sign,walked", [
    (1, 1, 1, 1), (1, 2, -1, 2), (2, 1, -1, 2), (1, 2, 1, 2), (2, 1, 1, 2),
])
def test_scan_walks_one_root_per_conjugate_pair(m, n, sign, walked):
    report = no_relation_scan(GenusOneKnot(m, n, sign), 3)
    assert report.roots_scanned == walked
    assert report.roots_scanned == sum(z.imag >= 0 for z in report.roots)
    assert report.dropped_roots == []


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
    report = no_relation_scan(knot, 4, 0.9)
    words, min_distance, hits = stack_scan(knot, 4, 0.9)
    lone = min(report.roots, key=lambda z: z.imag)
    assert lone.imag < 0 and lone.conjugate() not in report.roots
    assert report.roots_scanned == sum(z.imag >= 0 for z in report.roots) + 1
    assert report.words_checked == words
    assert report.min_distance == min_distance
    assert [(h.word, h.omega, h.distance) for h in report.hits] == hits
    assert any(h.omega == lone for h in report.hits)

