"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion carries its stated tolerance and time budget.
"""

import random
import time

from bridgeforge import _kernel
from bridgeforge.cli import _PIECE_CHECKS, CHECKS, CheckContext
from bridgeforge.farey import orbit_contains, reflection_generators
from bridgeforge.freeness import alternating_relation_word, no_relation_scan
from bridgeforge.meridians import long_meridian_words
from bridgeforge.sl2_oracle import riley_polynomials
from bridgeforge.slope import INFINITY, Frac, GenusOneKnot
from bridgeforge.words import (
    alt_word,
    apply_f,
    cyclic_s_sequence,
    free_reduce,
    inverse,
    is_alternating,
    s_sequence,
    word_str,
)

from test_freeness import composed_cs, float_scan, sign_patterns

LETTERS = (1, -1, 2, -2)


def _report(number, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s / budget {budget:.0f}s): {label}")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def grid(m_max, n_max):
    return [
        GenusOneKnot(m, n, sign)
        for m in range(1, m_max + 1)
        for n in range(1, n_max + 1)
        for sign in (1, -1)
    ]


def battery(names):
    """The cli.CHECKS rows with these names, in report order."""
    return [c for c in CHECKS if c.name in names]


def test_criterion_1_relator_closed_forms():
    t0 = time.perf_counter()
    ok = True
    (check,) = battery(("relator_cs",))
    for knot in grid(10, 10):
        ctx = CheckContext(knot)
        ok &= len(ctx.rel.u) == 2 * knot.p
        ok &= check.applies(knot) and check.run(ctx)
    _report(1, "relator length and CS closed form, grid 10x10", ok,
            time.perf_counter() - t0, 5.0)


def test_criterion_2_meridian_identities():
    t0 = time.perf_counter()
    ok = True
    (check,) = battery(("meridian_forms",))
    for knot in grid(10, 10):
        ok &= check.applies(knot) and check.run(CheckContext(knot))
    # the exceptional degenerate case keeps its closed form
    mw = long_meridian_words(GenusOneKnot(1, 1, -1))
    ok &= word_str(mw.w_x) == "b" and word_str(mw.w_y) == "A"
    _report(2, "meridian raw/closed forms and power identity, grid 10x10", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_3_small_cancellation():
    t0 = time.perf_counter()
    ok = True
    checks = battery(_PIECE_CHECKS)
    for knot in grid(4, 4):
        ctx = CheckContext(knot)
        ok &= all(c.applies(knot) and c.run(ctx) for c in checks)
    _report(3, f"piece battery with {_kernel.IMPL} kernel, grid 4x4", ok,
            time.perf_counter() - t0, 120.0)


def test_criterion_4_alternating_cs_closed_forms():
    t0 = time.perf_counter()
    ok = True
    checks = battery(("alternating_cs", "alternating_bounds"))
    for knot in grid(4, 4):
        ctx = CheckContext(knot)
        # the torus knot (1, 1, -) alone has no closed form
        ok &= all(c.run(ctx) for c in checks if c.applies(knot))
        ok &= all(c.applies(knot) for c in checks) != ((knot.m, knot.n, knot.sign) == (1, 1, -1))
        # every pattern's sequence is its junction blocks end to end: the
        # letter-by-letter reference for the blocks, up to t = 3
        for pattern in sign_patterns(3):
            cs = cyclic_s_sequence(alternating_relation_word(pattern, ctx.meridian_words))
            ok &= cs == composed_cs(pattern, ctx.meridian_words)
    _report(4, "alternating-word CS closed forms and forbidden terms, every t from 8 blocks", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_5_dihedral_orders():
    t0 = time.perf_counter()
    check = next(c for c in CHECKS if c.name == "dihedral_orders")
    ok = True
    for m in range(2, 21):
        # the check reads only the knot, so the context builds no relator
        # and no symmetrized set of (8m^2 - 2)-letter words
        knot = GenusOneKnot(m, m, -1)
        ctx = CheckContext(knot)
        ok &= check.applies(knot) and check.run(ctx)
        ok &= not {"rel", "R", "meridian_words"} & vars(ctx).keys()
    _report(5, "dihedral image orders 2m+1 / 2m-1, m = 2..20", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_6_matrix_scan():
    t0 = time.perf_counter()
    ok = True
    for params in ((1, 1, 1), (2, 1, 1), (1, 2, -1), (2, 2, -1)):
        knot = GenusOneKnot(*params)
        report = no_relation_scan(6, long_meridian_words(knot), riley_polynomials(knot.fraction))
        ok &= report.clean and report.words_nontrivial == report.words_checked
        ok &= report.words_checked == 4 * (3**6 - 1) // 2
        # the float margins, from the test oracle
        margins = float_scan(knot, 6, tol=1e-3)
        ok &= margins.min_distance > 1e-3 and not margins.hits
        ok &= margins.max_residual < 1e-9
    _report(6, "no relation up to 6 syllables: exact mod l, 1e-3 from +-I in floats", ok,
            time.perf_counter() - t0, 120.0)


def test_criterion_7_farey_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    ok = True
    bound = 2
    for r in (Frac(2, 5), Frac(2, 7), Frac(6, 25)):
        gens = reflection_generators(r, bound)
        for g in gens:
            # exact involution and endpoint fixing
            ok &= g.a * g.a + g.b * g.c == 1 and g.det == -1
            ok &= all(g.apply(e) == e for e in g.edge)
        for _ in range(100):
            target = rng.choice([r, INFINITY])
            for _ in range(rng.randint(1, 3)):
                target = gens[rng.randrange(len(gens))].apply(target)
            ok &= orbit_contains(r, target).found
    _report(7, "orbit descent recovers 3-step reflection images, 100 trials each", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_8_word_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(1729)
    ok = True
    for _ in range(10_000):
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 40)))
        r = free_reduce(w)
        ok &= free_reduce(r) == r
        ok &= apply_f(apply_f(w)) == w
        ok &= free_reduce(apply_f(w)) == apply_f(r)
        if r:
            ok &= s_sequence(inverse(r)) == tuple(reversed(s_sequence(r)))
    for _ in range(10_000):
        initial = rng.choice(LETTERS)
        runs = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 8)))
        w = alt_word(initial, runs)
        ok &= is_alternating(w) and w[0] == initial and s_sequence(w) == runs
    _report(8, "word-calculus randomized property suite, 10^4 words per law", ok,
            time.perf_counter() - t0, 10.0)
