"""Symmetrized relator sets and small-cancellation analysis.

A piece (relative to the symmetrized set R of all cyclic permutations of
the relator and of its inverse) is a word that is a common prefix of two
distinct elements of R.  On top of the piece notion this module checks
the C(4) and T(4) conditions, computes minimal piece decompositions, and
verifies the piece characterizations and the three-piece subword shape
that the freeness argument consumes.

Every check reads the longest-piece table of _kernel.max_piece_table,
one entry per rotation of u, and is near-linear in the relator length
n.  The inverse of a piece is a piece, so every question about u^-1 is
answered on u's row by inverting the word or the shape.  C(p) reads the
(p-1)-piece reach table, O(p n): the table is suffix-closed, so each
level follows the reach of the one before.  T(4) collects the (first,
last) letter classes of u in one zip, O(n), and derives those of u^-1.
The piece shapes are matched one sign run at a time against a trie of
the listed shapes and their reversals, O(n b) for shapes of at most b
runs, skipping every offset whose longest piece is as long as the
longest shape.  The three-piece shape reads the 2- and 3-piece reach
tables and sweeps the shape windows once.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cached_property

from . import _kernel
from .presentation import Relator, canonical_decomposition
from .slope import GenusOneKnot
from .words import Word, inverse, is_cyclically_reduced

UNREPRESENTABLE = math.inf

# a cancellation triangle's element classes per junction letters (check_T)
_TRIANGLES = [((-l3, l1), (-l1, l2), (-l2, l3))
              for l1, l2, l3 in itertools.product((1, -1, 2, -2), repeat=3)]


class SymmetrizedSet:
    """All rotations of a cyclic word and of its inverse, with the piece
    table of the word's rotations.

    Construction requires all 2|u| rotations to be distinct words (true
    for every two-bridge relator; proper powers are rejected).
    """

    def __init__(self, u: Word):
        u = tuple(u)
        if not u:
            raise ValueError("empty relator")
        if not is_cyclically_reduced(u):
            raise ValueError("relator must be cyclically reduced")
        n = len(u)
        piece_len = _kernel.max_piece_table(u)
        # a piece as long as the relator is a rotation shared by two elements
        if n in piece_len:
            raise ValueError("rotations collide; need all 2|u| elements distinct")
        self.word = u
        self.n = n
        self.piece_len = piece_len

    def __len__(self):
        return 2 * self.n

    @cached_property
    def encoded(self):
        """u u as bytes (_kernel.encode), built on the first find."""
        return _kernel.encode(self.word) * 2

    def find(self, v: Word):
        """The first offset of v in u u, else of v^-1, or None.

        A bytes search limited to matches that start below n.  v occurs
        in an element exactly when the search finds v or v^-1, and either
        is a piece, or a product of k pieces, exactly when the other is.
        """
        L = len(v)
        if L == 0 or L > self.n:
            return None
        for w in (v, inverse(v)):
            try:
                pattern = _kernel.encode(w)
            except ValueError:  # a letter that no byte encodes, in no relator word
                return None
            s = self.encoded.find(pattern, 0, self.n - 1 + L)
            if s >= 0:
                return s
        return None


def is_piece(v: Word, R: SymmetrizedSet) -> bool:
    """True when at least two distinct elements of R begin with v.

    The rotation of u at R.find(v) begins with v or v^-1, and another
    element does too exactly when the longest piece at that offset is at
    least |v| long.
    """
    if not v:
        raise ValueError("the empty word is not a piece candidate")
    s = R.find(tuple(v))
    return s is not None and R.piece_len[s] >= len(v)


def min_pieces(v: Word, R: SymmetrizedSet):
    """Minimal t with v a product of t pieces; UNREPRESENTABLE if none.

    v must occur as a subword of some element of R.
    """
    v = tuple(v)
    s = R.find(v)
    if s is None:
        raise ValueError("word is not a subword of any element of the set")
    t = _kernel.min_pieces_span(R.piece_len, s, len(v))
    return UNREPRESENTABLE if t < 0 else t


def check_C(R: SymmetrizedSet, p: int) -> bool:
    """C(p): no element of R is a product of fewer than p pieces.

    Rotation s of u is a product of at most p - 1 pieces exactly when
    p - 1 pieces reach across all n letters from offset s, so the
    (p-1)-piece reach table decides.  C(1) holds vacuously.

    The rotations of u decide for those of u^-1.  The inverse of a piece
    v is a piece: v is a common prefix of distinct elements r1, r2, so
    v^-1 is a common suffix of r1^-1 = x v^-1 and r2^-1 = y v^-1 with
    x != y, and a common prefix of their rotations v^-1 x != v^-1 y,
    which lie in R.  A rotation r = v1 ... vk of u^-1 is the inverse of
    the rotation vk^-1 ... v1^-1 of u, so it is a product of k pieces
    exactly when that rotation is.
    """
    if p < 2:
        return True
    return R.n not in _kernel.reach_table(R.piece_len, p - 1)[p - 1]


def check_T(R: SymmetrizedSet) -> bool:
    """T(4): no cancellation triangle r1, r2, r3 in R.

    A triangle is a triple with r2 != r1^-1, r3 != r2^-1, r1 != r3^-1
    whose three junction products r1 r2, r2 r3, r3 r1 all cancel.

    A triangle whose junction letters are l1, l2, l3 (the last letters
    of r1, r2, r3) takes its elements from the (first, last) letter
    classes (-l3, l1), (-l1, l2) and (-l2, l3), so T(4) fails exactly
    when some of the 64 letter triples finds all three classes occupied.
    Rotation s + 1 of u has first letter u[s + 1] and last letter u[s];
    the rotations of u^-1 are their inverses, of classes (-last, -first).
    """
    # The inverse exclusions never bind.  r2 = r1^-1 lies in class
    # (-l1, -first(r1)) = (-l1, l3), so it needs l2 = l3, and then r3
    # would need class (-l3, l3): first letter inverse to last, which no
    # rotation of a cyclically reduced word has.  r3 = r2^-1 and
    # r1 = r3^-1 likewise empty the class of r1 or of r2.
    u = R.word
    ends = set(zip(u[1:] + u[:1], u))
    ends |= {(-last, -first) for first, last in ends}
    return not any(map(ends.issuperset, _TRIANGLES))


def _count_cyclic_pattern(cs, pattern) -> int:
    """How many offsets of the cyclic sequence cs start pattern: str.find
    over cs twice, written one character (chr) per run length."""
    t = len(cs)
    if not cs or len(pattern) > t:
        return 0
    text, word = "".join(map(chr, cs)) * 2, "".join(map(chr, pattern))
    end = t - 1 + len(pattern)  # a match starts at an offset below t
    count = 0
    i = text.find(word, 0, end)
    while i >= 0:
        count += 1
        i = text.find(word, i + 1, end)
    return count


def _piece_patterns(knot: GenusOneKnot) -> set[tuple[int, ...]]:
    """S-sequence shapes that are asserted to be pieces for this knot.

    For the negative-sign family with n = 1 a maximal single-sign block
    of length 2m occurs only once in the symmetrized set (the antipodal
    copy carries the opposite sign), so the single-block family is capped
    at 2m - 1 there; brute-force enumeration confirms both the cap and
    that 2m is correct for n >= 2.
    """
    m, n = knot.m, knot.n
    pats: set[tuple[int, ...]] = set()
    for ell in range(1, m + 1):
        pats.add((1, ell))
        pats.add((ell, 1))
    if knot.sign < 0:
        w = 2 * m
        single_max = 2 * m if n >= 2 else 2 * m - 1
        for ell in range(1, single_max + 1):
            pats.add((ell,))
        for k in range(0, 2 * n - 1):          # k <= 2n-2
            pats.add((w,) * k + (1,))
            pats.add((1,) + (w,) * k)
        for k in range(0, 2 * n - 2):          # k <= 2n-3
            pats.add((1,) + (w,) * k + (1,))
    return pats


def _pattern_trie(pats):
    """The shapes as a trie of (children, ends) nodes: children maps a
    full run length to the next node, ends lists in ascending order the
    last run lengths that complete a shape there."""
    root = ({}, [])
    for pat in pats:
        node = root
        for x in pat[:-1]:
            node = node[0].setdefault(x, ({}, []))
        node[1].append(pat[-1])
    stack = [root]
    while stack:
        children, ends = stack.pop()
        ends.sort()
        stack.extend(children.values())
    return root


def _run_ends(row):
    """run_end[i]: the index just past the constant-sign run holding i."""
    run_end = [len(row)] * len(row)
    end = len(row)
    for i in range(len(row) - 2, -1, -1):
        if (row[i] > 0) != (row[i + 1] > 0):
            end = i + 1
        run_end[i] = end
    return run_end


def shapes_are_pieces(R: SymmetrizedSet, pats) -> bool:
    """Every subword of an element of R whose S-sequence is in pats is a
    piece.

    Pieces are prefix-closed, so per offset only the longest matching
    subword needs a look: it is a piece exactly when the longest piece
    there is at least as long.  A subword of a rotation of u^-1 is the
    inverse of one of a rotation of u, with its S-sequence reversed, and
    is a piece exactly when that one is; so one walk over the rotations
    of u, with the shapes and their reversals, decides.  The walk finds
    the longest matching subword one sign run at a time: every run but
    the last must be a full run of the subword and match a trie edge, and
    the last may be cut short.  An offset costs one step per run walked,
    at most the longest shape's run count.  No matched subword is longer
    than the longest shape: offsets whose longest piece reaches that
    length are skipped."""
    longest_shape = max(map(sum, pats), default=0)
    piece_len = R.piece_len
    if min(piece_len) >= longest_shape:
        return True
    trie = _pattern_trie({*pats, *(pat[::-1] for pat in pats)})
    n = R.n
    run_end = _run_ends(R.word * 2)
    for s in range(n):
        if piece_len[s] >= longest_shape:
            continue
        stop = s + n  # the subwords at s lie in (u u)[s:stop]
        i, node, longest = s, trie, 0
        while node is not None:
            children, ends = node
            e = run_end[i]
            if e > stop:
                e = stop
            full = e - i
            k = bisect_right(ends, full)
            if k:
                longest = i - s + ends[k - 1]
            if e == stop:
                break
            node = children.get(full)
            i = e
        if longest > piece_len[s]:
            return False
    return True


def verify_piece_prop(knot: GenusOneKnot, rel: Relator) -> bool:
    """Piece characterization battery for one knot, on its relator rel
    (built by the caller; the symmetrized set is built here).

    Checks that S1 and S2 are palindromic and occur exactly twice in the
    cyclic S-sequence of the relator, and that every subword of the
    relator or its inverse whose S-sequence matches the listed shapes is
    a piece.
    """
    R = SymmetrizedSet(rel.u)
    s1, s2 = canonical_decomposition(knot)
    if s1 != s1[::-1] or s2 != s2[::-1]:
        return False
    if _count_cyclic_pattern(rel.runs, s1) != 2 or _count_cyclic_pattern(rel.runs, s2) != 2:
        return False
    return shapes_are_pieces(R, _piece_patterns(knot))


def _shape_windows(runs: tuple, head: tuple, tail: tuple) -> list[tuple[int, int]]:
    """(start, end) of every window over four periods of a relator with
    run lengths runs (Relator.runs) that is the full runs head plus the
    first letter of the next run, or the last letter of the run before
    plus the full runs tail (run lengths as tuples), in ascending order of
    start.  Run 0 and the last run are never a window's full runs.

    No run of a relator crosses its period seam (presentation.relator
    checks it), so the runs of four periods are runs four times over.
    """
    lens = runs * 4
    # starts[j]: the first index of run j; starts[-1] closes the last run
    starts = [0, *itertools.accumulate(lens)]
    k = len(head)
    # a tail window at run j starts one letter before a head window at j
    # and not before one at j - 1, so the starts come out in ascending order
    windows = []
    for j in range(1, len(lens) - k):  # runs j .. j + k - 1, and one more
        shape = lens[j:j + k]
        if shape == tail:
            windows.append((starts[j] - 1, starts[j + k]))
        if shape == head:
            windows.append((starts[j], starts[j + k] + 1))
    return windows


def verify_three_piece_property(knot: GenusOneKnot, rel: Relator) -> bool:
    """Every length-minimal 3-piece subword of the knot's relator rel
    (built by the caller; the symmetrized set is built here) contains a
    subword of S-sequence shape (S1, S2, l) or (l, S2, S1).

    Containment is monotone in the subword length, so per starting offset
    only the shortest subword needing exactly three pieces is checked.

    The shape windows (_shape_windows) are read off the runs of four
    periods of the relator: runs other than the first and last are full
    runs of the periodic word, and every cyclic position has an
    untruncated copy inside [n, 3n).  A window of shape (S1, S2, l) is
    the full runs S1 + S2 and the first letter of the next run; one of
    shape (l, S2, S1) is the last letter of the run before and the full
    runs S2 + S1.  No relator run is longer than the first and last runs
    of S1 (2m + 1 for sign +, 2m for sign -), so no matching subword cuts
    a run there.  One backward sweep over the window starts keeps the
    earliest end among the windows starting at or after s + n.
    """
    R = SymmetrizedSet(rel.u)
    s1, s2 = canonical_decomposition(knot)
    n = R.n
    reach = _kernel.reach_table(R.piece_len, 3)
    r2, r3 = reach[2], reach[3]
    windows = _shape_windows(rel.runs, s1 + s2, s2 + s1)

    best_end = 4 * n + 1
    w = len(windows)
    for s in range(n - 1, -1, -1):
        while w and windows[w - 1][0] >= s + n:
            w -= 1
            if windows[w][1] < best_end:
                best_end = windows[w][1]
        lo = r2[s] + 1
        if lo > r3[s] or lo > n:
            continue  # no subword at s needs exactly three pieces
        if best_end > s + n + lo:
            return False
    return True
