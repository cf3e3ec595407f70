import math
import operator
import random
from functools import lru_cache

import pytest

from bridgeforge import _kernel, smallcancel
from bridgeforge.presentation import canonical_decomposition
from bridgeforge.slope import Frac, GenusOneKnot
from bridgeforge.smallcancel import (
    UNREPRESENTABLE,
    SymmetrizedSet,
    _piece_patterns,
    check_C,
    check_T,
    is_piece,
    min_pieces,
    shapes_are_pieces,
    verify_piece_prop,
    verify_three_piece_property,
)
from bridgeforge.words import cyclic_s_sequence, inverse, parse_word, rotations, s_sequence

from grids import knots, relator, symmetrized_sets
from test_kernel_parity import (
    frontier_min_span,
    inverse_row,
    quadratic_reach_table,
    random_relator_like_words,
    suffix_closure,
)


def two_rows(R):
    """The doubled words u u and u^-1 u^-1 of R, as lists."""
    return list(R.word) * 2, list(inverse(R.word)) * 2


def two_tables(R):
    """R's piece table, of the rotations of u, and the one of the
    rotations of u^-1 that it implies (inverse_row)."""
    return R.piece_len, inverse_row(R.piece_len)


def loop_find(R, v):
    """The first (row, offset) of v in u u (row 0) or u^-1 u^-1 (row 1),
    by comparing v letter by letter at every offset below n."""
    L = len(v)
    if L == 0 or L > R.n:
        return None
    for d, row in enumerate(two_rows(R)):
        for s in range(R.n):
            for i in range(L):
                if row[s + i] != v[i]:
                    break
            else:
                return d, s
    return None


def one_row_find(R, v):
    """SymmetrizedSet.find by loop_find: the offset of v in u u, else
    that of v^-1, which is in u u whenever v is in u^-1 u^-1."""
    loc = loop_find(R, v)
    if loc is None:
        return None
    d, s = loc
    if d == 1:
        d, s = loop_find(R, inverse(v))
        assert d == 0
    return s


def span_check_C(R, p):
    """check_C by the minimal piece count of every element of both rows
    in turn, by the frontier sweep over every cut (not the reach
    recurrence)."""
    n = R.n
    for row in two_tables(R):
        for s in range(n):
            t = frontier_min_span(row, s, n)
            if 0 < t < p:
                return False
    return True


def letter_shapes_are_pieces(R, pats):
    """shapes_are_pieces by growing the subword at each offset of both
    rows one letter at a time and testing each length's run shape
    against pats."""
    max_blocks = max(len(p) for p in pats)
    n = R.n
    for row, piece_len in zip(two_rows(R), two_tables(R)):
        for s in range(n):
            runs: list[int] = []
            last_sign = 0
            for L in range(1, n + 1):
                sgn = 1 if row[s + L - 1] > 0 else -1
                if sgn == last_sign:
                    runs[-1] += 1
                else:
                    runs.append(1)
                    last_sign = sgn
                if len(runs) > max_blocks:
                    break
                if tuple(runs) in pats and piece_len[s] < L:
                    return False
    return True


def lowered(R, rng, rate):
    """R with about a fraction rate of its piece-table entries lowered,
    and the entries before them lowered until the row is suffix-closed,
    as every piece table is; the oracles' row of u^-1 follows from it
    (inverse_row), so that the inverse of a piece is still a piece."""
    R.piece_len = suffix_closure([x if rng.random() >= rate else rng.randint(0, x) for x in R.piece_len])
    return R


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


def test_find_matches_letter_loop():
    rng = random.Random(9)
    words = [relator(f).u for f in (Frac(2, 5), Frac(2, 3), Frac(4, 17), Frac(6, 25))]
    words += random_relator_like_words(10, rng)
    found = missing = inverted = 0
    for u in words:
        R = SymmetrizedSet(u)
        rows = two_rows(R)
        for dbl in rows:
            for _ in range(30):  # subwords of both rows, up to the whole word
                s = rng.randrange(R.n)
                v = tuple(dbl[s : s + rng.randint(1, R.n)])
                got = R.find(v)
                assert got == one_row_find(R, v) is not None
                # v itself at the offset in u u, or else its inverse
                at = tuple(rows[0][got : got + len(v)])
                assert at in (v, inverse(v))
                inverted += at != v
        for _ in range(200):
            v = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, R.n + 2)))
            got = R.find(v)
            assert got == one_row_find(R, v), v
            found += got is not None
            missing += got is None
        for v in ((0,), (3,), (-3,), (1, 300), (300,), (-300,), (2, 253), ()):
            assert R.find(v) is None is loop_find(R, v)  # letters in no relator
    assert found and missing and inverted


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
            v = tuple(dbl[s : s + L])
            assert is_piece(v, R) == (min_pieces(v, R) == 1)


def test_prefix_of_piece_is_piece():
    R = SymmetrizedSet(relator(Frac(4, 17)).u)
    dbl = list(R.word) * 2
    for s in range(R.n):
        longest = R.piece_len[s]
        for L in range(1, longest + 1):
            assert is_piece(tuple(dbl[s : s + L]), R)


def test_piece_closed_under_inversion():
    R = SymmetrizedSet(relator(Frac(2, 7)).u)
    dbl = list(R.word) * 2
    for s in range(R.n):
        for L in range(1, R.n + 1):
            w = tuple(dbl[s : s + L])
            assert is_piece(w, R) == is_piece(inverse(w), R)


def test_min_pieces_monotone_under_subwords():
    R = SymmetrizedSet(relator(Frac(2, 7)).u)
    dbl = list(R.word) * 2
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


def test_check_C_below_two_is_vacuous():
    for f in (Frac(2, 5), Frac(2, 3), Frac(4, 17)):
        R = SymmetrizedSet(relator(f).u)
        assert check_C(R, 1) and check_C(R, 0)
        assert check_C(R, 2) == span_check_C(R, 2) is True


@pytest.mark.parametrize("bad", [0, 3, -3])
def test_symmetrized_set_rejects_letters_outside_alphabet(bad):
    with pytest.raises(ValueError, match=f"letter {bad} is not one of"):
        SymmetrizedSet((bad, 1, 2))
    # a pattern with such a letter occurs in no relator word
    R = SymmetrizedSet(relator(Frac(2, 5)).u)
    assert R.find((bad,)) is None
    assert R.find((1, bad)) is None


def test_piece_checks_match_oracles_on_grid():
    # on every knot of the 10x10 grid C(4) holds, C(5) fails and the
    # listed shapes are pieces, by check_C and shapes_are_pieces and by
    # their oracles
    for knot, R in symmetrized_sets(10):
        assert check_C(R, 4) is span_check_C(R, 4) is True, knot
        assert check_C(R, 5) is span_check_C(R, 5) is False, knot
        pats = _piece_patterns(knot)
        assert shapes_are_pieces(R, pats) is letter_shapes_are_pieces(R, pats) is True, knot


def test_check_C_matches_span_oracle_on_lowered_rows():
    rng = random.Random(10)
    verdicts = set()
    for knot, R in symmetrized_sets(6):
        lowered(R, rng, 0.05)
        for p in (2, 3, 4, 5):
            verdict = check_C(R, p)
            assert verdict == span_check_C(R, p), (knot, p)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def row_check_C(piece_len, p):
    """C(p) for the elements of one row alone, by its own reach table."""
    return len(piece_len) not in _kernel.reach_table(piece_len, p - 1)[p - 1]


def test_check_C_rows_agree_element_by_element():
    # check_C reads the row of u only: a rotation of u^-1 is a product of
    # k pieces exactly when its inverse, a rotation of u, is.  On the 6x6
    # grid and on random relator-like words, each rotation of u^-1 has
    # the minimal piece count on the row of u^-1 (inverse_row, which
    # tests/test_kernel_parity.py checks against brute force) that its
    # inverse has on R's row, and both rows give the verdict of check_C
    # and of span_check_C for p = 2..6
    rng = random.Random(13)
    sets = [R for _, R in symmetrized_sets(6)]
    sets += [SymmetrizedSet(u) for u in random_relator_like_words(300, rng)]
    verdicts = set()
    for R in sets:
        n = R.n
        fwd, bwd = two_tables(R)
        fwd_row, bwd_row = two_rows(R)
        for s in range(n):
            element = bwd_row[s:s + n]
            t = R.find(inverse(element))
            assert tuple(fwd_row[t:t + n]) == inverse(element)
            assert frontier_min_span(bwd, s, n) == frontier_min_span(fwd, t, n)
        for p in range(2, 7):
            verdict = check_C(R, p)
            assert verdict == row_check_C(fwd, p) == row_check_C(bwd, p) == span_check_C(R, p)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_check_T_examples():
    assert check_T(SymmetrizedSet(relator(Frac(2, 5)).u))
    assert check_T(SymmetrizedSet(relator(Frac(2, 3)).u))


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
    for knot in (GenusOneKnot(1, 1, 1), GenusOneKnot(2, 2, -1), GenusOneKnot(1, 1, -1)):
        assert verify_piece_prop(knot, relator(knot.fraction))


def test_shapes_match_letter_scan_on_lowered_rows():
    rng = random.Random(11)
    verdicts = set()
    for knot, R in symmetrized_sets(6):
        pats = _piece_patterns(knot)
        lowered(R, rng, 0.2)
        verdict = shapes_are_pieces(R, pats)
        assert verdict == letter_shapes_are_pieces(R, pats), knot
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_shapes_match_letter_scan_on_random_tables():
    # random words, random shape sets and the suffix closures of random
    # piece tables with entries up to n, so the longest matching subword
    # can be the whole word and the first run can be cut by the window;
    # the oracle's row of u^-1 follows from a suffix-closed row only
    rng = random.Random(12)
    verdicts = []
    for u in random_relator_like_words(150, rng):
        R = SymmetrizedSet(u)
        n = R.n
        R.piece_len = suffix_closure([rng.randint(n // 2, n) for _ in range(n)])
        pats = {
            tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 12))
        }
        verdict = shapes_are_pieces(R, pats)
        assert verdict == letter_shapes_are_pieces(R, pats), (u, pats)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_shapes_match_letter_scan_across_longest_shape():
    # piece tables with about a third of their entries capped a few
    # letters either side of the longest shape's length, one entry below
    # it, and their suffix closures: the row of u, and the row of u^-1
    # that the oracle reads, have offsets that the length bound skips and
    # offsets that the trie walk must decide
    rng = random.Random(14)
    verdicts = set()
    for knot, R in symmetrized_sets(6):
        pats = _piece_patterns(knot)
        longest = max(map(sum, pats))
        row = [min(x, longest + rng.randint(-2, 2)) if rng.random() < 0.3 else x for x in R.piece_len]
        low = rng.randrange(R.n)
        row[low] = min(row[low], longest - 1)
        R.piece_len = suffix_closure(row)
        for table in two_tables(R):
            assert min(table) < longest <= max(table)
        verdict = shapes_are_pieces(R, pats)
        assert verdict == letter_shapes_are_pieces(R, pats), knot
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_shapes_reach_the_inverse_rotations_by_reversal():
    # the shape (1, 2) alone is not closed under reversal.  Lower one
    # entry of a grid table to 2 where u has a subword of shape (2, 1)
    # and length 3: its inverse, of shape (1, 2), is a subword of a
    # rotation of u^-1 and no longer a piece, while every subword of u of
    # shape (1, 2) still is.  Only the reversed shape on u's row sees it
    pats = {(1, 2)}
    found = 0
    for _, R in symmetrized_sets(4):
        n, uu, real = R.n, R.word * 2, R.piece_len
        for t in range(n):
            if s_sequence(uu[t:t + 3]) != (2, 1) or real[t] < 3:
                continue
            R.piece_len = suffix_closure(real[:t] + [2] + real[t + 1:])
            # a subword of shape (1, 2) has 3 letters
            if all(R.piece_len[s] >= 3 for s in range(n) if s_sequence(uu[s:s + 3]) == (1, 2)):
                assert shapes_are_pieces(R, pats) is letter_shapes_are_pieces(R, pats) is False
                assert shapes_are_pieces(R, {(2, 1)}) is False
                found += 1
        R.piece_len = real
        assert shapes_are_pieces(R, pats) is letter_shapes_are_pieces(R, pats)
    assert found


def letter_count_cyclic_pattern(cs, pattern):
    """_count_cyclic_pattern by comparing pattern term by term at every
    offset of cs."""
    t = len(cs)
    if len(pattern) > t:
        return 0
    return sum(all(cs[(off + i) % t] == x for i, x in enumerate(pattern)) for off in range(t))


def test_count_cyclic_pattern_matches_the_term_loop():
    # S1 and S2 against the runs of every 12x12 relator, and random run
    # sequences against random patterns: empty, wrapping the end, longer
    # than the sequence, with overlapping matches, and with large terms
    rng = random.Random(42)
    counts = set()
    cases = []
    for knot in knots(12):
        runs = relator(knot.fraction).runs
        cases += [(runs, part) for part in canonical_decomposition(knot)]
    for _ in range(3000):
        cs = tuple(rng.choice([1, 2, 3, 300, 0x10FFFF]) for _ in range(rng.randint(0, 9)))
        length = rng.randint(0, len(cs) + 1)
        start = rng.randrange(len(cs)) if cs and rng.random() < 0.7 else 0
        pattern = ((cs * 2)[start:start + length] if cs and rng.random() < 0.7
                   else tuple(rng.choice([1, 2, 3]) for _ in range(length)))
        cases.append((cs, pattern))
    cases += [((), ()), ((2,), ()), ((2, 2, 2, 2), (2, 2)), ((1, 2, 1, 2), (2, 1, 2))]
    for cs, pattern in cases:
        count = smallcancel._count_cyclic_pattern(cs, pattern)
        assert count == letter_count_cyclic_pattern(cs, pattern), (cs, pattern)
        counts.add(count)
    assert {0, 1, 2, 4} <= counts


def test_verify_three_piece_examples():
    for knot in (GenusOneKnot(1, 1, 1), GenusOneKnot(1, 1, -1), GenusOneKnot(2, 1, 1)):
        assert verify_three_piece_property(knot, relator(knot.fraction))


def linear_runs(letters):
    """Maximal constant-sign runs of a letter list as (start, length) pairs."""
    runs = []
    start = 0
    for i in range(1, len(letters) + 1):
        if i == len(letters) or (letters[i] > 0) != (letters[start] > 0):
            runs.append((start, i - start))
            start = i
    return runs


def three_piece_walker(knot):
    """walk(s1, s2): verify_three_piece_property for the shapes (s1, s2),
    by a walk over the runs of four periods that matches each run index
    against both shapes and takes the earliest window end from every
    start by a suffix minimum over all 4n positions.  The relator, its
    runs and the reach tables, from the quadratic oracle, depend on the
    knot alone and are built once here."""
    u = relator(knot.fraction).u
    R = SymmetrizedSet(u)
    n = R.n
    reach = quadratic_reach_table(R.piece_len, 3)
    r2, r3 = reach[2], reach[3]

    letters4 = list(u) * 4
    runs = linear_runs(letters4)
    lens = [ln for _, ln in runs]
    starts = [st for st, _ in runs]
    total = len(letters4)

    def run_match(j, pattern):
        if j + len(pattern) >= len(runs):
            return False
        return all(lens[j + i] == pattern[i] for i in range(len(pattern)))

    def walk(s1, s2):
        head = s1 + s2
        tail = s2 + s1
        match_ends = []
        for j in range(1, len(runs) - 1):
            if run_match(j, head):
                match_ends.append((starts[j], starts[j + len(head)] + 1))
            if run_match(j, tail):
                ms = starts[j] - 1
                me = starts[j + len(tail) - 1] + lens[j + len(tail) - 1]
                match_ends.append((ms, me))

        best_end = [total + 1] * (total + 1)
        ends_at = {}
        for ms, me in match_ends:
            if me < ends_at.get(ms, total + 1):
                ends_at[ms] = me
        for x in range(total - 1, -1, -1):
            best_end[x] = min(best_end[x + 1], ends_at.get(x, total + 1))

        for s in range(n):
            lo = r2[s] + 1
            if lo > r3[s] or lo > n:
                continue
            if best_end[s + n] > s + n + lo:
                return False
        return True

    return walk


def letter_runs(u):
    """The run starts of four periods of u, found by scanning its 4n
    letters, which handles a run across a period seam, and the run
    lengths between them."""
    letters4 = u * 4
    total = len(letters4)
    starts = [0, *(i for i in range(1, total)
                   if (letters4[i] > 0) != (letters4[i - 1] > 0)), total]
    return starts, list(map(operator.sub, starts[1:], starts[:-1]))


def run_start_windows(runs, head, tail):
    """smallcancel._shape_windows on the letter_runs of a relator."""
    starts, lens = runs
    head, tail = list(head), list(tail)
    k = len(head)
    windows = []
    for j in range(1, len(lens) - k):
        shape = lens[j:j + k]
        if shape == tail:
            windows.append((starts[j] - 1, starts[j + k]))
        if shape == head:
            windows.append((starts[j], starts[j + k] + 1))
    return windows


def perturbed_shapes(s1, s2):
    """The true shapes, swapped, S1 with every run one longer, S2 without
    its last run, and S1 with its first run one longer."""
    return (
        (s1, s2),
        (s2, s1),
        (tuple(x + 1 for x in s1), s2),
        (s1, s2[:-1]),
        ((s1[0] + 1,) + s1[1:], s2),
    )


def test_shape_windows_match_run_start_scan_on_grid():
    # the runs of one period, four times, give the windows of the letter
    # scan for every shape of the 24x24 grid.  verify_three_piece_property
    # reads the relator's runs only through these windows, so with the
    # letter scan in place of _shape_windows it gives the verdicts it gives
    # here and, on every perturbed shape, those of the 8x8 run walk below
    verdicts = set()
    for knot in knots(24):
        rel = relator(knot.fraction)
        runs = letter_runs(rel.u)
        true_shape = canonical_decomposition(knot)
        for s1, s2 in perturbed_shapes(*true_shape):
            got = smallcancel._shape_windows(rel.runs, s1 + s2, s2 + s1)
            assert got == run_start_windows(runs, s1 + s2, s2 + s1), (knot, s1, s2)
            assert got or (s1, s2) != true_shape  # the true shapes occur
        verdicts.add(verify_three_piece_property(knot, rel))
    assert verdicts == {True}


def test_three_piece_matches_run_walk_on_perturbed_shapes(monkeypatch):
    # the perturbed shapes on the 8x8 grid: the one-pass check and the run
    # walk give the same verdicts.  Both read whole runs only, which the
    # true shapes allow because no relator run is longer than the first
    # and last runs of S1.  The check on the windows of the letter scan
    # gives them too: test_shape_windows_match_run_start_scan_on_grid
    # finds the same windows for every perturbed shape of 24x24
    verdicts = []
    for knot in knots(8):
        rel = relator(knot.fraction)
        s1, s2 = canonical_decomposition(knot)
        assert max(cyclic_s_sequence(rel.u)) == s1[0] == s1[-1]
        walk = three_piece_walker(knot)
        for shape in perturbed_shapes(s1, s2):
            monkeypatch.setattr(smallcancel, "canonical_decomposition",
                                lambda _knot, shape=shape: shape)
            verdict = verify_three_piece_property(knot, rel)
            assert verdict == walk(*shape), (knot, shape)
            verdicts.append(verdict)
    assert len(verdicts) == 640 and True in verdicts and False in verdicts


def test_three_piece_against_brute_force():
    # independent containment check on two small knots
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
        assert verify_three_piece_property(knot, rel) == expected == True


def test_battery_sweep_small():
    for knot in knots(2):
        rel = relator(knot.fraction)
        R = SymmetrizedSet(rel.u)
        assert verify_piece_prop(knot, rel)
        assert verify_three_piece_property(knot, rel)
        assert check_C(R, 4)
        assert check_T(R)
