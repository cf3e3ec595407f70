import math
import random
from functools import lru_cache

import pytest

from bridgeforge.presentation import relator
from bridgeforge.slope import Frac, GenusOneKnot
from bridgeforge.smallcancel import (
    UNREPRESENTABLE,
    SymmetrizedSet,
    check_C,
    check_T,
    is_piece,
    min_pieces,
    piece_report,
    verify_piece_prop,
    verify_three_piece_property,
)
from bridgeforge.words import inverse, parse_word, rotations, s_sequence


def brute_piece_counter(elements):
    def count(w):
        return sum(1 for e in elements if e[: len(w)] == w)

    return count


def brute_min_pieces(elements):
    count = brute_piece_counter(elements)

    @lru_cache(maxsize=None)
    def mp(w):
        if not w:
            return 0
        best = math.inf
        for j in range(1, len(w) + 1):
            if count(w[:j]) >= 2:
                tail = mp(w[j:])
                if tail + 1 < best:
                    best = tail + 1
        return best

    return mp


def test_symmetrized_set_sizes():
    assert len(SymmetrizedSet(relator(Frac(2, 5)).u)) == 20
    assert len(SymmetrizedSet(relator(Frac(2, 3)).u)) == 12
    assert len(SymmetrizedSet(parse_word("ab"))) == 4
    with pytest.raises(ValueError):
        SymmetrizedSet(parse_word("abA"))
    with pytest.raises(ValueError):
        SymmetrizedSet(parse_word("abab"))  # rotations collide


def test_is_piece_against_brute_force():
    rng = random.Random(5)
    for f in (Frac(2, 5), Frac(2, 3), Frac(2, 9), Frac(4, 17)):
        u = relator(f).u
        R = SymmetrizedSet(u)
        elements = rotations(u) + rotations(inverse(u))
        count = brute_piece_counter(elements)
        for dbl in (list(u) * 2, list(inverse(u)) * 2):
            for s in range(len(u)):
                for L in range(1, len(u) + 1):
                    w = tuple(dbl[s : s + L])
                    assert is_piece(w, R) == (count(w) >= 2)
        strangers = 0
        for _ in range(200):
            w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 8)))
            strangers += count(w) == 0
            assert is_piece(w, R) == (count(w) >= 2), w
        assert strangers > 0  # words that are not subwords were tried
    R = SymmetrizedSet(relator(Frac(2, 5)).u)
    assert is_piece(parse_word("ab"), R)
    assert not is_piece(R.word, R)  # a full relator is never a piece here
    assert is_piece(parse_word("a"), R) and is_piece(parse_word("b"), R)


def test_min_pieces_against_brute_force():
    for f in (Frac(2, 5), Frac(2, 3), Frac(2, 9)):
        u = relator(f).u
        R = SymmetrizedSet(u)
        mp = brute_min_pieces(tuple(rotations(u) + rotations(inverse(u))))
        dbl = list(u) * 2
        for s in range(len(u)):
            for L in range(1, len(u) + 1):
                w = tuple(dbl[s : s + L])
                expected = mp(w)
                got = min_pieces(w, R)
                if expected is math.inf:
                    assert got is UNREPRESENTABLE
                else:
                    assert got == expected


def test_min_pieces_domain_error():
    R = SymmetrizedSet(relator(Frac(2, 5)).u)
    with pytest.raises(ValueError):
        min_pieces(parse_word("aa"), R)


def test_piece_report_consistency():
    R = SymmetrizedSet(relator(Frac(2, 5)).u)
    u = R.word
    dbl = list(u) * 2
    for s in range(0, len(u), 3):
        for L in (1, 2, 3, 5):
            rep = piece_report(tuple(dbl[s : s + L]), R)
            assert rep.is_piece == (rep.min_pieces == 1)


def test_prefix_of_piece_is_piece():
    R = SymmetrizedSet(relator(Frac(4, 17)).u)
    dbl = R.doubled[0]
    for s in range(R.n):
        longest = R.piece_len[0][s]
        for L in range(1, longest + 1):
            assert is_piece(tuple(dbl[s : s + L]), R)


def test_piece_closed_under_inversion():
    R = SymmetrizedSet(relator(Frac(2, 7)).u)
    dbl = R.doubled[0]
    for s in range(R.n):
        for L in range(1, R.n + 1):
            w = tuple(dbl[s : s + L])
            assert is_piece(w, R) == is_piece(inverse(w), R)


def test_min_pieces_monotone_under_subwords():
    R = SymmetrizedSet(relator(Frac(2, 7)).u)
    dbl = R.doubled[0]
    for s in range(R.n):
        for L in range(2, R.n + 1):
            whole = min_pieces(tuple(dbl[s : s + L]), R)
            sub = min_pieces(tuple(dbl[s : s + L - 1]), R)
            if whole is not UNREPRESENTABLE and sub is not UNREPRESENTABLE:
                assert sub <= whole


def test_relator_is_at_least_four_pieces():
    for f in (Frac(2, 5), Frac(2, 3)):
        u = relator(f).u
        R = SymmetrizedSet(u)
        assert min_pieces(u, R) >= 4
        assert check_C(R, 4)
        assert not check_C(R, 5)


def test_check_T_examples():
    assert check_T(SymmetrizedSet(relator(Frac(2, 5)).u))
    assert check_T(SymmetrizedSet(relator(Frac(2, 3)).u))
    with pytest.raises(ValueError):
        check_T(SymmetrizedSet(relator(Frac(2, 5)).u), 5)


def brute_has_triangle(elements):
    """Some triple r1, r2, r3 with no neighbour pair mutually inverse and
    all three junctions r1 r2, r2 r3, r3 r1 cancelling."""
    for r1 in elements:
        for r2 in elements:
            if r1[-1] != -r2[0] or r2 == inverse(r1):
                continue
            for r3 in elements:
                if r2[-1] != -r3[0] or r3[-1] != -r1[0]:
                    continue
                if r3 != inverse(r2) and r1 != inverse(r3):
                    return True
    return False


def test_check_T_against_brute_force_triangles():
    rng = random.Random(1)
    verdicts = []
    while len(verdicts) < 300:
        n = rng.randint(2, 14)
        w = [rng.choice([1, -1, 2, -2])]
        while len(w) < n:
            nxt = rng.choice([1, -1, 2, -2])
            if nxt != -w[-1]:
                w.append(nxt)
        w = tuple(w)
        if w[0] == -w[-1]:
            continue
        elements = rotations(w) + rotations(inverse(w))
        if len(set(elements)) != 2 * n:
            continue
        verdict = check_T(SymmetrizedSet(w))
        assert verdict == (not brute_has_triangle(elements)), w
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_trefoil_two_piece_word():
    # S-sequence (2) subwords of the (1,1,-) relator are two pieces, not one
    R = SymmetrizedSet(relator(Frac(2, 3)).u)
    assert not is_piece(parse_word("ba"), R)
    assert min_pieces(parse_word("ba"), R) == 2


def test_verify_piece_prop_examples():
    assert verify_piece_prop(GenusOneKnot(1, 1, 1))
    assert verify_piece_prop(GenusOneKnot(2, 2, -1))
    assert verify_piece_prop(GenusOneKnot(1, 1, -1))


def test_verify_three_piece_examples():
    assert verify_three_piece_property(GenusOneKnot(1, 1, 1))
    assert verify_three_piece_property(GenusOneKnot(1, 1, -1))
    assert verify_three_piece_property(GenusOneKnot(2, 1, 1))


def test_three_piece_against_brute_force():
    # independent containment check on two small knots
    from bridgeforge.presentation import canonical_decomposition

    for params in ((1, 1, 1), (1, 2, -1)):
        knot = GenusOneKnot(*params)
        rel = relator(knot.fraction)
        u = rel.u
        s1, s2 = canonical_decomposition(knot)
        mp = brute_min_pieces(tuple(rotations(u) + rotations(inverse(u))))
        dbl = list(u) * 2
        k = len(s1) + len(s2)

        def contains_shape(s, L):
            for i in range(L):
                for j in range(i + 1, L + 1):
                    sv = s_sequence(tuple(dbl[s + i : s + j]))
                    if len(sv) == k + 1 and (
                        sv[:k] == s1 + s2 or sv[1:] == s2 + s1
                    ):
                        return True
            return False

        expected = all(
            contains_shape(s, L)
            for s in range(len(u))
            for L in range(1, len(u) + 1)
            if mp(tuple(dbl[s : s + L])) == 3
        )
        assert verify_three_piece_property(knot) == expected == True


def test_battery_sweep_small():
    for m in range(1, 3):
        for n in range(1, 3):
            for sign in (1, -1):
                knot = GenusOneKnot(m, n, sign)
                R = SymmetrizedSet(relator(knot.fraction).u)
                assert verify_piece_prop(knot)
                assert verify_three_piece_property(knot)
                assert check_C(R, 4)
                assert check_T(R, 4)
