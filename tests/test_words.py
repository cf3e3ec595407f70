import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeforge.words import (
    alt_power,
    alt_word,
    apply_f,
    concat,
    cyclic_s_sequence,
    cyclic_seq_eq,
    free_reduce,
    inverse,
    is_alternating,
    is_cyclically_alternating,
    is_cyclically_reduced,
    is_reduced,
    least_rotation,
    parse_word,
    rotations,
    s_sequence,
    word_str,
)

raw_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=60).map(tuple)
nonempty_reduced = raw_words.map(free_reduce).filter(lambda w: w)


def test_parse_print_round_trip():
    for text in ("", "a", "abAB", "aBBA", "bbbb", "AbaBab"):
        assert word_str(parse_word(text)) == text
    with pytest.raises(ValueError):
        parse_word("abc")


def test_free_reduce_examples():
    assert free_reduce(parse_word("abBA")) == ()
    assert free_reduce(parse_word("abaB")) == parse_word("abaB")
    # nested cancellation: a (bA) (aB) A
    assert free_reduce(parse_word("abAaBA")) == ()


@given(raw_words)
def test_free_reduce_idempotent_and_reduced(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert is_reduced(r)


@given(raw_words)
def test_free_reduce_cancels_inverse(w):
    assert free_reduce(concat(w, inverse(w))) == ()


def test_alt_power():
    x, y = parse_word("x".replace("x", "a")), parse_word("b")
    assert alt_power(x, y, 3) == parse_word("aba")
    assert alt_power(x, y, 0) == ()
    assert alt_power(x, y, -2) == parse_word("BA")
    # multi-letter factors concatenate without reduction
    assert alt_power(parse_word("ab"), parse_word("BA"), 3) == parse_word("abBAab")


def test_s_sequence_examples():
    assert s_sequence(parse_word("abaBAbabAB")) == (3, 2, 3, 2)
    assert s_sequence(parse_word("a")) == (1,)
    assert s_sequence(parse_word("ABab")) == (2, 2)
    with pytest.raises(ValueError):
        s_sequence(())


@given(nonempty_reduced)
def test_s_sequence_sum_and_reversal(w):
    s = s_sequence(w)
    assert sum(s) == len(w)
    assert s_sequence(inverse(w)) == tuple(reversed(s))


def test_cyclic_s_sequence_examples():
    assert cyclic_s_sequence(parse_word("abaBAbabAB")) == (3, 2, 3, 2)
    assert cyclic_s_sequence(parse_word("ab")) == (2,)
    assert cyclic_s_sequence(parse_word("aB")) == (1, 1)
    # wrap-around merge
    assert cyclic_s_sequence(parse_word("aBAb")) == (2, 2)
    with pytest.raises(ValueError):
        cyclic_s_sequence(parse_word("abA"))


@given(nonempty_reduced.filter(is_cyclically_reduced))
def test_cyclic_s_sequence_rotation_invariant(w):
    cs = cyclic_s_sequence(w)
    assert sum(cs) == len(w)
    assert len(cs) == 1 or len(cs) % 2 == 0
    for rot in rotations(w):
        assert cyclic_seq_eq(cyclic_s_sequence(rot), cs)


def test_alternating_predicates():
    assert is_alternating(parse_word("aBa"))
    assert not is_alternating(parse_word("aab"))
    assert not is_cyclically_alternating(parse_word("aba"))
    assert is_cyclically_alternating(parse_word("abaB"))


def test_alt_word_examples():
    assert alt_word(2, (1,)) == parse_word("b")
    assert alt_word(-1, (1, 1)) == parse_word("Ab")
    assert alt_word(1, (3, 2)) == parse_word("abaBA")
    with pytest.raises(ValueError):
        alt_word(1, ())
    with pytest.raises(ValueError):
        alt_word(1, (2, 0, 2))


@given(
    st.sampled_from([1, -1, 2, -2]),
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
)
def test_alt_word_round_trip(initial, runs):
    w = alt_word(initial, runs)
    assert is_alternating(w) and is_reduced(w)
    assert w[0] == initial
    assert s_sequence(w) == tuple(runs)


def test_apply_f_examples():
    assert apply_f(parse_word("a")) == parse_word("B")
    assert apply_f(parse_word("aB")) == parse_word("Ba")
    assert apply_f(apply_f(parse_word("aba"))) == parse_word("aba")


@given(raw_words)
def test_apply_f_involution_commutes_with_reduce(w):
    assert apply_f(apply_f(w)) == tuple(w)
    assert free_reduce(apply_f(w)) == apply_f(free_reduce(w))


def test_cyclic_seq_eq_aligns_values():
    assert not cyclic_seq_eq((1, 12), (11, 2))
    assert not cyclic_seq_eq((1, 12), (2, 11))
    assert cyclic_seq_eq((1, 12), (12, 1))
    assert cyclic_seq_eq((300, -1, 2), (2, 300, -1))
    assert not cyclic_seq_eq((1, 2), (1, 2, 1))
    assert cyclic_seq_eq((), ())


def test_cyclic_seq_eq_matches_least_rotation():
    # brute-force oracle: equal lengths and equal least rotations
    rng = random.Random(5)
    values = (1, 2, 3, 11, 12, 21, 22, 255, 256, 1000)
    agree = 0
    for _ in range(3000):
        s = tuple(rng.choice(values) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.5:
            k = rng.randint(0, len(s))
            t = s[k:] + s[:k]
            if t and rng.random() < 0.3:
                i = rng.randrange(len(t))
                t = t[:i] + (rng.choice(values),) + t[i + 1:]
        else:
            t = tuple(rng.choice(values) for _ in range(len(s) + rng.randint(-1, 1)))
        expected = len(s) == len(t) and least_rotation(s) == least_rotation(t)
        assert cyclic_seq_eq(s, t) == expected, (s, t)
        agree += expected
    assert agree > 1000  # the rotated cases exercise the True branch


@settings(max_examples=60)
@given(nonempty_reduced)
def test_least_rotation_is_canonical(w):
    canon = least_rotation(w)
    assert sorted(canon) == sorted(w)
    assert all(least_rotation(rot) == canon for rot in rotations(w))


# Letter-by-letter definitions of the primitives that run their loops in
# builtins (map, in, str.join); each must give the same result, or raise
# the same exception, on every word.

def letter_inverse(word):
    return tuple(-x for x in reversed(word))


def letter_is_reduced(word):
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def letter_is_alternating(word):
    return all(abs(word[i]) != abs(word[i + 1]) for i in range(len(word) - 1))


def letter_word_str(word):
    return "".join({1: "a", -1: "A", 2: "b", -2: "B"}[x] for x in word)


def letter_apply_f(word):
    return tuple((abs(x) - 3) * (1 if x > 0 else -1) for x in word)


def outcome(fn, word):
    try:
        return "value", fn(word)
    except Exception as exc:  # the exception's type and text are the outcome
        return type(exc).__name__, str(exc)


def oracle_words(count, rng):
    """The empty word, every one-letter word, and random words of up to 40
    letters over +-1, +-2, about one in five also holding 0, +-3 or 300."""
    letters = [1, -1, 2, -2]
    odd = [0, 3, -3, 300]
    words = [(), *((x,) for x in letters + odd)]
    for _ in range(count):
        pool = letters + odd if rng.random() < 0.2 else letters
        words.append(tuple(rng.choice(pool) for _ in range(rng.randint(2, 40))))
    # runs of one letter, cancelling pairs and long alternating stretches
    words += [(1, 1, 1), (2, -2), (1, 2, -2, 1), (1, 2) * 20, (-1, -2, 1, 2) * 9, (300, -300)]
    return words


@pytest.mark.parametrize("fast,letter,seen", [
    (inverse, letter_inverse, {"value"}),
    (is_reduced, letter_is_reduced, {True, False}),
    (is_alternating, letter_is_alternating, {True, False}),
    (word_str, letter_word_str, {"value", "KeyError"}),
    (apply_f, letter_apply_f, {"value"}),
])
def test_primitives_match_their_letter_loops(fast, letter, seen):
    # seen: the verdicts of a predicate, else "value" and the errors raised
    rng = random.Random(31)
    outcomes = set()
    for w in oracle_words(2000, rng):
        for arg in (w, list(w)):
            got = outcome(fast, arg)
            assert got == outcome(letter, arg), (fast.__name__, arg)
            outcomes.add(got[1] if isinstance(got[1], bool) else got[0])
    assert outcomes == seen
