from math import gcd

import pytest

from bridgeforge import presentation, words
from bridgeforge.presentation import (
    canonical_decomposition,
    epsilon_sequence,
    relator,
    verify_cs_closed_form,
)
from bridgeforge.slope import Frac, GenusOneKnot
from bridgeforge.words import (
    cyclic_s_sequence,
    cyclic_seq_eq,
    free_reduce,
    is_cyclically_alternating,
    s_sequence,
    word_str,
)

from grids import knots


def oracle_epsilons(p, q):
    return tuple((-1) ** ((i * q) // p) for i in range(1, p))


def test_epsilon_examples():
    assert epsilon_sequence(5, 2) == (1, 1, -1, -1)
    assert epsilon_sequence(3, 2) == (1, -1)
    for p in (3, 5, 7, 11):
        assert epsilon_sequence(p, 1) == (1,) * (p - 1)
    with pytest.raises(ValueError):
        epsilon_sequence(6, 2)
    with pytest.raises(ValueError):
        epsilon_sequence(5, 5)


def test_epsilon_against_oracle():
    for p in range(3, 30):
        for q in range(1, p):
            from math import gcd

            if gcd(p, q) == 1:
                assert epsilon_sequence(p, q) == oracle_epsilons(p, q)


def test_epsilon_antisymmetry_for_even_q():
    for p in range(3, 40, 2):
        for q in range(2, p, 2):
            from math import gcd

            if gcd(p, q) != 1:
                continue
            eps = epsilon_sequence(p, q)
            assert all(eps[i - 1] * eps[p - i - 1] == -1 for i in range(1, p))


def test_relator_frozen_examples():
    rel = relator(Frac(2, 5))
    assert word_str(rel.u) == "abaBAbabAB"
    assert word_str(rel.u_hat) == "baBA"
    assert word_str(relator(Frac(2, 3)).u) == "abAbaB"


def test_relator_structure_sweep():
    for p in range(3, 40, 2):
        for q in range(1, p):
            from math import gcd

            if gcd(p, q) != 1:
                continue
            if q % 2:
                # the recipe is for even q; the error names the mirror slope
                with pytest.raises(ValueError, match=f"use {p - q}/{p}$"):
                    relator(Frac(q, p))
                continue
            rel = relator(Frac(q, p))
            assert len(rel.u) == 2 * p
            assert free_reduce(rel.u) == rel.u
            assert is_cyclically_alternating(rel.u)


def recipe_word(p, q):
    """a uhat b uhat^-1 with uhat = b^e1 a^e2 ... a^e(p-1), for any q."""
    eps = oracle_epsilons(p, q)
    u_hat = tuple((2 if i % 2 else 1) * eps[i - 1] for i in range(1, p))
    return (1, *u_hat, 2, *words.inverse(u_hat))


def alexander_polynomial(word):
    """The Fox derivative d(word)/da under a -> t, b -> 1/t, as its
    coefficient list from the lowest power of t, with a positive leading
    coefficient: the Alexander polynomial when word is a knot group's
    relator (a and b^-1 are conjugate meridians)."""
    coeff = {}
    e = 0  # the exponent of t that the prefix read so far maps to
    for letter in word:
        if letter == 1:
            coeff[e] = coeff.get(e, 0) + 1
        elif letter == -1:
            coeff[e - 1] = coeff.get(e - 1, 0) - 1
        e += 1 if letter in (1, -2) else -1
    assert e == 0  # the word maps to 1
    powers = [k for k, c in coeff.items() if c]
    poly = [coeff.get(k, 0) for k in range(min(powers), max(powers) + 1)]
    return poly if poly[-1] > 0 else [-c for c in poly]


def test_alexander_polynomial_examples():
    assert alexander_polynomial(recipe_word(3, 1)) == [-1, 2]   # ababAB: not a knot
    assert alexander_polynomial(relator(Frac(2, 3)).u) == [1, -1, 1]   # trefoil
    assert alexander_polynomial(relator(Frac(2, 5)).u) == [1, -3, 1]   # figure eight


def test_relator_has_a_knot_alexander_polynomial_for_even_q_only():
    # a knot's Alexander polynomial is palindromic with value +-1 at t = 1;
    # the recipe meets that exactly for even q, and relator takes only those
    passed = failed = 0
    for p in range(3, 40, 2):
        for q in range(1, p):
            from math import gcd

            if gcd(p, q) != 1:
                continue
            word = recipe_word(p, q)
            poly = alexander_polynomial(word)
            is_knot = poly == poly[::-1] and abs(sum(poly)) == 1
            assert is_knot == (q % 2 == 0), (q, p, poly)
            if q % 2 == 0:
                assert relator(Frac(q, p)).u == word
                passed += 1
            else:
                failed += 1
    assert passed == failed == 158


def _tampered_inverse(position, letter):
    """words.inverse with the letter at position replaced."""
    def tampered(word):
        out = list(words.inverse(word))
        out[position] = letter
        return tuple(out)
    return tampered


@pytest.mark.parametrize("position,letter", [
    (0, -2),   # abaBA b B...: an adjacent inverse pair
    (-1, -1),  # a...A: the first letter inverse to the last
    (0, 2),    # abaBA b b...: two adjacent letters of one generator
])
def test_relator_validation_rejects_tampered_words(monkeypatch, position, letter):
    # u = a uhat b uhat^-1 with uhat = baBA at 2/5; the one cyclically
    # alternating check stands for reducedness and cyclic reducedness too
    assert relator(Frac(2, 5)).u == (1, 2, 1, -2, -1, 2, 1, 2, -1, -2)
    monkeypatch.setattr(presentation, "inverse", _tampered_inverse(position, letter))
    with pytest.raises(AssertionError, match="not cyclically alternating"):
        relator(Frac(2, 5))


def test_relator_refuses_a_run_across_the_seam(monkeypatch):
    # abaBA b abAb is cyclically alternating, but its last letter is
    # positive: its first and last runs would merge across the seam
    monkeypatch.setattr(presentation, "inverse", _tampered_inverse(-1, 2))
    with pytest.raises(AssertionError, match="crosses its period seam"):
        relator(Frac(2, 5))


def test_relator_runs_are_its_s_sequence_and_cyclic_s_sequence():
    # every even-numerator slope with p < 200
    for p in range(3, 200, 2):
        for q in range(2, p, 2):
            if gcd(p, q) == 1:
                rel = relator(Frac(q, p))
                assert rel.runs == s_sequence(rel.u) == cyclic_s_sequence(rel.u), (q, p)


def test_relator_rejects_links():
    with pytest.raises(ValueError):
        relator(Frac(1, 4))


def test_canonical_decomposition_examples():
    assert canonical_decomposition(GenusOneKnot(1, 1, 1)) == ((3,), (2,))
    assert canonical_decomposition(GenusOneKnot(1, 1, -1)) == ((2,), (1,))
    assert canonical_decomposition(GenusOneKnot(2, 3, -1)) == ((4, 4, 4, 4, 4), (3,))


def test_decomposition_is_palindromic_and_sums_to_relator_length():
    for k in knots(7):
        s1, s2 = canonical_decomposition(k)
        assert s1 == s1[::-1] and s2 == s2[::-1]
        assert 2 * (sum(s1) + sum(s2)) == 2 * k.p


def test_cs_closed_form_examples():
    assert cyclic_s_sequence(relator(Frac(2, 5)).u) == (3, 2, 3, 2)
    assert cyclic_s_sequence(relator(Frac(2, 3)).u) == (2, 1, 2, 1)
    for knot in (GenusOneKnot(1, 1, 1), GenusOneKnot(1, 1, -1)):
        assert verify_cs_closed_form(knot, relator(knot.fraction))


def test_cs_closed_form_sweep():
    for knot in knots(10):
        assert verify_cs_closed_form(knot, relator(knot.fraction))


def test_literal_closed_form_matches_the_rotation_oracle():
    # verify_cs_closed_form compares at the relator's own rotation; the
    # comparison modulo rotation is the oracle it replaced (12x12 grid)
    for knot in knots(12):
        s1, s2 = canonical_decomposition(knot)
        cs = cyclic_s_sequence(relator(knot.fraction).u)
        assert cyclic_seq_eq(cs, s1 + s2 + s1 + s2)
        assert verify_cs_closed_form(knot, relator(knot.fraction))
