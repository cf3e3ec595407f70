"""The piece kernels against brute-force oracles.

max_piece_table sorts the rotations by integer key and takes each
neighbour LCP from the XOR of two keys; the brute-force oracle extends
each rotation's prefix while any other rotation still shares it, and the
definition-level oracle find_max_piece binary-searches the longest
prefix that bytes.find finds at a second offset.  The earlier byte-key
table, bytes_max_piece_table, is kept here as the reference for the
packed base-4 keys, and dict_join_max_piece_table, which joins the
digits letter by letter, as the reference for the translated digit rows.
reach_table follows the last cut of each level, and min_pieces_span
walks the same last cuts from one offset.  Both are right on
suffix-closed tables (piece_len[(i+1) % n] >= piece_len[i] - 1, true of
every max_piece_table row) and refuse any other.  reach_table is checked
against the quadratic sweep over every cut, min_pieces_span against a
dynamic program over all piece lengths and against the frontier sweep
it replaced, frontier_min_span, which tries every cut of each level and
so is right on any table: on grid rows, on random tables and on their
suffix closures.

max_piece_table returns the row of u only.  The oracles still build both
rows, and the row of u^-1 they find must be inverse_row of the kernel's
row: the inverse of a piece is a piece, so the row of u decides it.
"""

import itertools
import random
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgeforge import _kernel
from bridgeforge.slope import GenusOneKnot
from bridgeforge.words import inverse, parse_word, rotations

from grids import knots, relator


def random_relator_like_words(count, rng):
    """Cyclically reduced words whose rotations are all distinct."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 40)
        w = [rng.choice([1, -1, 2, -2])]
        while len(w) < n:
            nxt = rng.choice([1, -1, 2, -2])
            if nxt != -w[-1]:
                w.append(nxt)
        w = tuple(w)
        if len(w) >= 2 and w[0] == -w[-1]:
            continue
        elems = rotations(w) + rotations(inverse(w))
        if len(set(elems)) == 2 * len(w):
            out.append(w)
    return out


def inverse_row(P0):
    """The piece table of the rotations of u^-1 that the suffix-closed
    table P0 of the rotations of u implies.

    The length-L prefix of rotation s of u^-1 is the inverse of the
    length-L subword of u u ending at e = 2n - 1 - s, and the inverse of
    a piece is a piece, so its longest piece is as long as the longest
    piece of u ending at e.  The cuts t with t + P0[t] > e form a suffix,
    since t + P0[t] never decreases, and bisection finds the first.
    """
    n = len(P0)
    a = [t + x for t, x in enumerate(P0 * 2)]
    out = []
    for s in range(n):
        e = 2 * n - 1 - s  # u[n-1-s] in the doubled row
        out.append(e + 1 - bisect_left(a, e + 1, e - n + 1, e + 1))
    return out


def brute_max_piece(word):
    n = len(word)
    rows = (list(word) * 2, list(inverse(word)) * 2)
    by_first = {}
    for d in (0, 1):
        for s in range(n):
            by_first.setdefault(rows[d][s], []).append((d, s))
    out = ([0] * n, [0] * n)
    for d in (0, 1):
        row = rows[d]
        for s in range(n):
            # extend the prefix while some other rotation still shares it
            others = [(rows[d2], s2) for d2, s2 in by_first[row[s]] if (d2, s2) != (d, s)]
            lcp = 0
            while others and lcp < n:
                lcp += 1
                if lcp < n:
                    letter = row[s + lcp]
                    others = [(r, s2) for r, s2 in others if r[s2 + lcp] == letter]
            out[d][s] = lcp
    return out


def find_max_piece(word):
    """The longest-piece table by the definition: for each rotation, the
    longest prefix that bytes.find also finds at another offset below n
    of the doubled rows u u and u^-1 u^-1 (each letter shifted up by 2).
    A prefix of a piece is a piece, so a binary search on the prefix
    length finds it."""
    n = len(word)
    rows = tuple(bytes(x + 2 for x in w) * 2 for w in (word, inverse(word)))

    def shared(d, s, length):
        pattern = rows[d][s:s + length]
        stop = n - 1 + length  # matches start below n
        for d2, row in enumerate(rows):
            at = row.find(pattern, 0, stop)
            if d2 == d and at == s:
                at = row.find(pattern, s + 1, stop)
            if at >= 0:
                return True
        return False

    out = ([0] * n, [0] * n)
    for d in (0, 1):
        for s in range(n):
            lo, hi = 0, n  # shared(d, s, lo) holds; the answer is <= hi
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if shared(d, s, mid):
                    lo = mid
                else:
                    hi = mid - 1
            out[d][s] = lo
    return out


def bytes_max_piece_table(letters):
    """Longest-piece lengths per rotation offset of u: entry s is the
    largest L such that the length-L cyclic subword of u starting at
    offset s is a piece.  Entries are 0 where even the single letter is
    unique, and n where two of the 2n rotations are the same word.
    """
    # the kernel before base-4 packing: each rotation of u and of u^-1 an
    # n-byte slice of the encoded doubled words, keyed by int.from_bytes
    n = len(letters)
    if n == 0:
        return []
    fwd_row, bwd_row = (_kernel.encode(w) * 2 for w in (letters, inverse(letters)))
    key = int.from_bytes
    keys = [key(fwd_row[s:s + n], "big") for s in range(n)]
    keys += [key(bwd_row[s:s + n], "big") for s in range(n)]
    order = sorted(range(2 * n), key=keys.__getitem__)
    best = [0] * (2 * n)
    i = order[0]
    ki = keys[i]
    for j in order[1:]:
        kj = keys[j]
        # equal keys (two equal rotations) give n
        lcp = n - ((ki ^ kj).bit_length() + 7) // 8
        if lcp > best[i]:
            best[i] = lcp
        if lcp > best[j]:
            best[j] = lcp
        i, ki = j, kj
    return best[:n]


def dict_join_max_piece_table(letters):
    """max_piece_table with its digit rows built letter by letter: a dict
    maps each letter (and, for u^-1, each inverse letter) to its base-4
    digit, and the digits are joined into a str."""
    digit = {-2: "0", -1: "1", 1: "2", 2: "3"}
    n = len(letters)
    if n == 0:
        return []
    try:
        digits = "".join([digit[x] for x in letters])
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} is not one of -2, -1, 1, 2") from None
    mask = (1 << 2 * n) - 1
    keys = []
    for row in (digits, "".join([digit[-x] for x in reversed(letters)])):
        row = int(row * 2, 4)
        keys += [row >> shift & mask for shift in range(2 * n, 0, -2)]
    order = sorted(range(2 * n), key=keys.__getitem__)
    best = [0] * (2 * n)
    for i, j in zip(order, order[1:]):
        lcp = n - ((keys[i] ^ keys[j]).bit_length() + 1) // 2
        best[i] = max(best[i], lcp)
        best[j] = max(best[j], lcp)
    return best[:n]


def brute_min_span(piece_len, start, length):
    n = len(piece_len)
    INF = 10**9
    best = [INF] * (length + 1)
    best[0] = 0
    for pos in range(length):
        if best[pos] == INF:
            continue
        for step in range(1, min(piece_len[(start + pos) % n], length - pos) + 1):
            if best[pos] + 1 < best[pos + step]:
                best[pos + step] = best[pos] + 1
    return -1 if best[length] == INF else best[length]


def frontier_min_span(piece_len, start, length):
    """min_pieces_span as it was, kept as its reference: a shortest path
    on the cut positions.  Pieces are prefix-closed, so the positions
    reachable with k pieces form an interval and one frontier sweep per
    k, over every cut in it, suffices on any nonnegative table."""
    n = len(piece_len)
    if length == 0:
        return 0
    k = 0
    lo = hi = 0
    while hi < length:
        k += 1
        best = hi
        for pos in range(lo, hi + 1):
            reach = pos + piece_len[(start + pos) % n]
            if reach > best:
                best = reach
        if best == hi:
            return -1
        lo = hi + 1
        hi = length if best >= length else best
    return k


def quadratic_reach_table(piece_len, kmax):
    """reach_table by trying every cut in [s, s + reach[k-1][s]]."""
    n = len(piece_len)
    tables = [[0] * n]
    if kmax >= 1:
        tables.append([x if x < n else n for x in piece_len])
    for _ in range(2, kmax + 1):
        prev = tables[-1]
        nxt = [0] * n
        for s in range(n):
            best = prev[s]
            for pos in range(1, prev[s] + 1):
                reach = pos + piece_len[(s + pos) % n]
                if reach > best:
                    best = reach
            nxt[s] = n if best > n else best
        tables.append(nxt)
    return tables


def is_suffix_closed(P):
    n = len(P)
    return all(P[(i + 1) % n] >= P[i] - 1 for i in range(n))


def suffix_closure(P):
    """P lowered by P[i] = min(P[i], P[(i+1) % n] + 1) until nothing
    changes: the largest suffix-closed table below P."""
    P = list(P)
    n = len(P)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            bound = P[(i + 1) % n] + 1
            if P[i] > bound:
                P[i] = bound
                changed = True
    return P


def random_words_and_powers(count, rng):
    """Pairs of a word over +-1, +-2 (reduced or not) and a proper power
    of it, whose rotations collide."""
    letters = (1, -1, 2, -2)
    for _ in range(count):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 24)))
        yield w, w * rng.randint(2, 3)


def test_pure_against_brute_force():
    rng = random.Random(5)
    for w in random_relator_like_words(12, rng):
        expected = brute_max_piece(w)
        P = _kernel.max_piece_table(list(w))
        assert (expected[0], expected[1]) == (P, inverse_row(P))
        for _ in range(30):
            s = rng.randrange(len(w))
            L = rng.randint(1, len(w))
            assert _kernel.min_pieces_span(P, s, L) == brute_min_span(P, s, L)


def test_pure_reach_consistent_with_spans():
    rng = random.Random(6)
    for w in random_relator_like_words(8, rng):
        P = _kernel.max_piece_table(list(w))
        reach = _kernel.reach_table(P, 4)
        n = len(w)
        for s in range(n):
            for k in range(1, 5):
                r = reach[k][s]
                if r:
                    assert 0 < frontier_min_span(P, s, min(r, n)) <= k
                if r < n:
                    beyond = frontier_min_span(P, s, r + 1)
                    assert beyond == -1 or beyond > k


def test_reach_table_matches_quadratic_on_random_tables():
    # arbitrary jump tables, entries equal to n (a whole-word piece) and 0
    # (a dead cut) included, for every kmax from 0 to 6: a suffix-closed
    # table gives the oracle's reach, any other is refused, and the
    # suffix closure of every table gives the oracle's reach again
    rng = random.Random(7)
    closed = refused = 0
    for _ in range(1500):
        n = rng.randint(1, 24)
        P = [rng.choice((0, n, rng.randint(0, n))) for _ in range(n)]
        kmax = rng.randint(0, 6)
        if is_suffix_closed(P):
            closed += 1
            assert _kernel.reach_table(P, kmax) == quadratic_reach_table(P, kmax), (P, kmax)
        else:
            refused += 1
            with pytest.raises(ValueError):
                _kernel.reach_table(P, kmax)
        Q = suffix_closure(P)
        assert is_suffix_closed(Q) and all(map(int.__le__, Q, P))
        assert _kernel.reach_table(Q, kmax) == quadratic_reach_table(Q, kmax), (Q, kmax)
    assert closed and refused


def test_reach_table_matches_quadratic_on_grid_relators():
    # the 3-piece tables that three_piece reads, on the 8x8 grid; check_C
    # reads the same tables, and its test covers 10x10
    for knot in knots(8):
        fwd = _kernel.max_piece_table(list(relator(knot.fraction).u))
        assert _kernel.reach_table(fwd, 3) == quadratic_reach_table(fwd, 3)


def test_reach_table_matches_quadratic_on_lowered_rows():
    # grid rows of u and of u^-1 with about one entry in ten lowered,
    # some of them to 0, and the entries before them lowered until the
    # row is suffix-closed
    rng = random.Random(8)
    for knot in knots(6):
        fwd = _kernel.max_piece_table(list(relator(knot.fraction).u))
        for row in (fwd, inverse_row(fwd)):
            cut = suffix_closure([x if rng.random() < 0.9 else rng.randint(0, x) for x in row])
            assert _kernel.reach_table(cut, 4) == quadratic_reach_table(cut, 4)


def test_max_piece_table_on_grid_relators():
    for knot in knots(6):
        u = relator(knot.fraction).u
        expected = brute_max_piece(u)
        got = _kernel.max_piece_table(list(u))
        assert (got, inverse_row(got)) == (expected[0], expected[1])


def test_max_piece_table_on_random_words():
    # any words over +-1, +-2 (reduced or not), n = 1 and 2 included, and
    # proper powers, whose rotations collide so that every entry is n; the
    # brute-force row of u^-1 is the one the kernel's row implies
    rng = random.Random(9)
    for w, power in random_words_and_powers(400, rng):
        expected = brute_max_piece(w)
        got = _kernel.max_piece_table(list(w))
        assert (got, inverse_row(got)) == (expected[0], expected[1]), w
        n = len(power)
        got = _kernel.max_piece_table(list(power))
        assert got == inverse_row(got) == [n] * n, power
    for w in ((1,), (2,), (-1, -1), (1, 2), (1, -1), (2, -1)):
        expected = brute_max_piece(w)
        got = _kernel.max_piece_table(list(w))
        assert (got, inverse_row(got)) == (expected[0], expected[1]), w


def test_max_piece_rows_are_suffix_closed():
    # dropping the first letter of a piece leaves a piece (the two
    # elements sharing it, rotated by one, are distinct), so every row,
    # of u and the one of u^-1 it implies, satisfies the contract of
    # reach_table: the 12x12 grid, and the random words and proper powers
    # above
    fwds = [_kernel.max_piece_table(list(relator(knot.fraction).u)) for knot in knots(12)]
    rows = [row for fwd in fwds for row in (fwd, inverse_row(fwd))]
    for pair in random_words_and_powers(400, random.Random(9)):
        for w in pair:
            fwd = _kernel.max_piece_table(list(w))
            rows.extend((fwd, inverse_row(fwd)))
    assert len(rows) == 2 * 288 + 2 * 800
    for row in rows:
        assert is_suffix_closed(row), row


def test_max_piece_table_marks_collisions():
    # in abab rotations 0 and 2 are the same word, so the whole word is
    # shared; the symmetrized set rejects exactly this
    w = parse_word("abab")
    got = _kernel.max_piece_table(list(w))
    assert (got, inverse_row(got)) == (brute_max_piece(w)[0], brute_max_piece(w)[1])
    assert got == [4, 4, 4, 4]


class CountingRow(list):
    """A piece row that counts the entries read by index and fails once
    the reads outnumber its entries: the walk reads one per piece."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        if self.reads > len(self):
            raise AssertionError("the walk reads on past a dead cut")
        return super().__getitem__(i)


def test_span_edge_cases():
    P = [2, 1, 0, 2]
    assert _kernel.min_pieces_span(P, 0, 0) == 0
    assert _kernel.min_pieces_span(CountingRow(P), 2, 1) == -1  # dead position
    assert _kernel.min_pieces_span(CountingRow(P), 0, 4) == -1  # a dead cut reached
    assert _kernel.min_pieces_span(CountingRow(P), 3, 3) == 2 == brute_min_span(P, 3, 3)
    with pytest.raises(ValueError):
        _kernel.min_pieces_span(P, 0, 5)


TABLES = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=20)


@given(TABLES, st.data())
def test_span_greedy_matches_dp_on_arbitrary_tables(P, data):
    # the frontier reference must solve the jump-cover problem for any
    # nonnegative jump table, not just realizable piece tables
    start = data.draw(st.integers(min_value=0, max_value=len(P) - 1))
    length = data.draw(st.integers(min_value=0, max_value=len(P)))
    assert frontier_min_span(P, start, length) == brute_min_span(P, start, length)


@given(TABLES, st.data())
def test_span_walk_matches_dp_on_suffix_closures(P, data):
    # the last-cut walk on the largest suffix-closed table below any table
    Q = suffix_closure(P)
    start = data.draw(st.integers(min_value=0, max_value=len(Q) - 1))
    length = data.draw(st.integers(min_value=0, max_value=len(Q)))
    assert _kernel.min_pieces_span(Q, start, length) == brute_min_span(Q, start, length)


def test_span_walk_refuses_tables_not_suffix_closed():
    # every table of length 1 to 5 over 0..4 that is not suffix-closed,
    # at every span; every one that is gives the dynamic program's count
    refused = 0
    for n in range(1, 6):
        for P in itertools.product(range(5), repeat=n):
            P = list(P)
            spans = [(s, L) for s in range(n) for L in range(n + 1)]
            if is_suffix_closed(P):
                for s, L in spans:
                    assert _kernel.min_pieces_span(P, s, L) == brute_min_span(P, s, L), (P, s, L)
                continue
            refused += 1
            for s, L in spans:
                with pytest.raises(ValueError, match="not suffix-closed"):
                    _kernel.min_pieces_span(P, s, L)
    assert refused


def test_span_walk_matches_frontier_on_grid_rows():
    # every offset of the rows of u and of u^-1 of the 8x8 grid, at the
    # whole relator and at a random length; dead cuts included on the
    # lowered rows
    rng = random.Random(10)
    dead = 0
    for knot in knots(8):
        fwd = _kernel.max_piece_table(list(relator(knot.fraction).u))
        for row in (fwd, inverse_row(fwd)):
            cut = suffix_closure([x if rng.random() < 0.9 else rng.randint(0, x) for x in row])
            n = len(row)
            for P in (row, cut):
                for s in range(n):
                    for L in (n, rng.randint(1, n)):
                        got = _kernel.min_pieces_span(P, s, L)
                        assert got == frontier_min_span(P, s, L), (P, s, L)
                        dead += got == -1
    assert dead


def test_find_oracle_matches_brute_force():
    # the two oracles agree on the 6x6 grid and on the random words and
    # proper powers, where every entry is n
    words = [relator(knot.fraction).u for knot in knots(6)]
    for pair in random_words_and_powers(400, random.Random(9)):
        words.extend(pair)
    for w in words:
        assert find_max_piece(w) == brute_max_piece(w), w


def test_packed_table_matches_byte_keys_and_brute_force_on_grid():
    # the definition-level oracle stands for brute_max_piece here: the
    # grid's pieces run to hundreds of letters, where extending each
    # prefix one letter at a time against every rotation takes 30 s
    for knot in knots(12):
        u = list(relator(knot.fraction).u)
        got = _kernel.max_piece_table(u)
        fwd, bwd = find_max_piece(u)
        assert got == bytes_max_piece_table(u) == fwd, knot
        assert inverse_row(got) == bwd, knot


def test_packed_table_matches_byte_keys_and_brute_force_on_random_words():
    # the words and proper powers of test_max_piece_table_on_random_words
    for w, power in random_words_and_powers(400, random.Random(9)):
        w = list(w)
        got = _kernel.max_piece_table(w)
        fwd, bwd = brute_max_piece(w)
        assert got == bytes_max_piece_table(w) == fwd and inverse_row(got) == bwd, w
        power = list(power)
        assert _kernel.max_piece_table(power) == bytes_max_piece_table(power), power


@pytest.mark.parametrize("m,n", [(24, 24), (1, 24), (24, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_table_matches_byte_keys_on_large_grid_corners(m, n, sign):
    # up to n = 2 * 2305 letters, too long for the brute-force oracle
    u = list(relator(GenusOneKnot(m, n, sign).fraction).u)
    assert _kernel.max_piece_table(u) == bytes_max_piece_table(u)


@pytest.mark.parametrize("bad", [0, 3, -3])
def test_max_piece_table_rejects_letters_outside_alphabet(bad):
    # 0 once encoded as a byte between -1 and 1 and passed; 3 and -3 failed
    # only inside bytes()
    with pytest.raises(ValueError, match=f"letter {bad} is not one of"):
        _kernel.max_piece_table([1, 2, bad, 2])


def test_translated_digits_match_the_dict_join():
    # the 12x12 grid (as tuples, as SymmetrizedSet passes them, and as
    # lists), the random words and proper powers, and words with letters
    # outside the alphabet, each raising ValueError for its first one
    words = [relator(knot.fraction).u for knot in knots(12)]
    words += [list(w) for w in words[:24]]
    for pair in random_words_and_powers(400, random.Random(19)):
        words.extend(pair)
    rng = random.Random(20)
    bad = [(300,), (-300,), (1, 0), (3, 0, 2), (2, -1, -3, 4), (1, 2) * 30 + (300,)]
    bad += [tuple(rng.choice([1, -1, 2, -2, 0, 3, -3, 300]) for _ in range(rng.randint(1, 12)))
            for _ in range(300)]
    outcomes = set()
    for w in words + bad:
        try:
            expected = dict_join_max_piece_table(w)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                _kernel.max_piece_table(w)
            assert str(err.value) == str(exc), w
            outcomes.add(str(exc))
        else:
            assert _kernel.max_piece_table(w) == expected, w
            outcomes.add("table")
    assert {"table", "letter 300 is not one of -2, -1, 1, 2",
            "letter -300 is not one of -2, -1, 1, 2", "letter 0 is not one of -2, -1, 1, 2",
            "letter 3 is not one of -2, -1, 1, 2", "letter -3 is not one of -2, -1, 1, 2"} == outcomes
