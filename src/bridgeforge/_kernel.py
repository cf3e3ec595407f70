"""Piece kernels behind the small-cancellation analysis.

The symmetrized set of a cyclic word u of length n consists of the n
rotations of u and the n rotations of u^-1.  A piece is a common prefix
of two distinct elements of that set, so the longest piece starting at a
given rotation offset is the longest prefix that offset shares with any
other offset.  The inverse of a piece is a piece, so the pieces at the
rotations of u decide those at the rotations of u^-1, and the kernels
keep u's row only.

max_piece_table finds those maxima from the sorted order of the 2n
rotations: the longest common prefix (LCP) a rotation shares with any
other is the larger of its LCPs with its two sorted neighbours (the
suffix-array idea of Kasai et al., CPM 2001).  The rotations of u^-1
are sorted too, since a piece of u may be shared with one of them.
With -2, -1, 1, 2 as the base-4 digits 0..3, in order, the doubled
words u u and u^-1 u^-1 are one int each and rotation s is its n digits
at s, (row >> 2(n - s)) & (4^n - 1): the keys sort as the words do.
bytes.translate turns the encoded letters into the digits, and each d
into 3 - d for the reversed word u^-1.  Two keys first differ in the
digit where the rotations do: the XOR of sorted neighbours has
(n - LCP) significant digits, so one XOR and one bit_length give each
LCP, in C.

reach_table gives, for every offset s and every k up to kmax, how far
from s at most k pieces reach.  Pieces are prefix-closed, so the spans k
pieces cover from s are exactly the lengths up to reach[k][s], and a
(k+1)-th piece can start at any cut i in [s, s + reach[k][s]].  So
reach[k+1][s] is a range maximum of a[i] = i + piece_len[i mod n] over
those cuts.  Pieces are also closed under dropping their first letter
(the two elements sharing v, rotated by one, are distinct and share v
minus its first letter), so piece_len[(i+1) % n] >= piece_len[i] - 1:
every row is suffix-closed, a never decreases, and the maximum is at
the last cut.  Each level is one pass, a whole table O(kmax n).
min_pieces_span walks the same recurrence from one offset, one cut per
piece, O(pieces), and trusts its row to be suffix-closed; reach_table,
which runs once per table built, refuses a row that is not.
"""

import operator

IMPL = "pure"

# encoded letters -2, -1, 1, 2 (bytes 0, 1, 3, 4) as base-4 digits, in
# letter order, and every other byte as an "x" that int() refuses
_DIGITS = b"01x23" + b"x" * 251
_FLIP = bytes.maketrans(b"0123", b"3210")


def encode(word):
    """A word over +-1, +-2 as bytes: each letter shifted up by 2."""
    return bytes(map((2).__add__, word))


def max_piece_table(letters):
    """Longest-piece lengths per rotation offset of u.

    Entry s is the largest L such that the length-L cyclic subword of u
    starting at offset s is a piece.  Entries are 0 where even the single
    letter is unique, and n where two of the 2n rotations are the same
    word: two equal rotations of u^-1 are the inverses of two equal
    rotations of u, and a rotation of u equal to one of u^-1 is itself
    an entry.  A letter other than -2, -1, 1, 2 raises ValueError.
    """
    n = len(letters)
    if n == 0:
        return []
    try:
        digits = encode(letters).translate(_DIGITS)
        rows = int(digits * 2, 4), int(digits[::-1].translate(_FLIP) * 2, 4)
    except ValueError:
        bad = next(x for x in letters if x not in (-2, -1, 1, 2))
        raise ValueError(f"letter {bad!r} is not one of -2, -1, 1, 2") from None
    mask = (1 << 2 * n) - 1
    keys = []
    for row in rows:
        keys += [row >> shift & mask for shift in range(2 * n, 0, -2)]
    order = sorted(range(2 * n), key=keys.__getitem__)
    best = [0] * (2 * n)
    i = order[0]
    ki = keys[i]
    for j in order[1:]:
        kj = keys[j]
        # equal keys (two equal rotations) give n
        lcp = n - ((ki ^ kj).bit_length() + 1) // 2
        if lcp > best[i]:
            best[i] = lcp
        if lcp > best[j]:
            best[j] = lcp
        i, ki = j, kj
    return best[:n]


def min_pieces_span(piece_len, start, length):
    """Minimal number of pieces covering the cyclic span [start, start+length).

    piece_len is a max_piece_table row.  On a suffix-closed row the last
    cut reached is the best place for the next piece (reach_table), so
    r += piece_len[(start + r) % n], one step per piece, until r covers
    the span.  Returns -1 when the span is not a product of pieces at
    all: the walk meets a cut where no piece starts, and no earlier cut
    reaches past it.  The row is not checked: on one that is not
    suffix-closed the walk may miss a shorter cover.
    """
    n = len(piece_len)
    if not 0 <= length <= n:
        raise ValueError("span length must be between 0 and len(piece_len)")
    k = r = 0
    while r < length:
        step = piece_len[(start + r) % n]
        if not step:
            return -1
        r += step
        k += 1
    return k


def reach_table(piece_len, kmax):
    """reach[k][s]: longest span from offset s coverable by <= k pieces.

    reach[0] is all zeros; entries are capped at n.  For k >= 2,
    reach[k][s] is r + piece_len[(s + r) % n] with r = reach[k-1][s]:
    a[i] = i + piece_len[i mod n] never decreases on a suffix-closed row,
    so the last cut i = s + r gives the largest reach.  A row that is not
    suffix-closed (no max_piece_table row) raises ValueError.
    """
    # one pass over the drops piece_len[i] - piece_len[(i+1) % n]
    if piece_len and max(map(operator.sub, piece_len, piece_len[1:] + piece_len[:1])) > 1:
        raise ValueError("piece table is not suffix-closed")
    n = len(piece_len)
    tables = [[0] * n]
    if kmax >= 1:
        tables.append([x if x < n else n for x in piece_len])
    doubled = piece_len * 2  # s + r < 2n
    for _ in range(2, kmax + 1):
        nxt = []
        for s, r in enumerate(tables[-1]):
            r += doubled[s + r]
            nxt.append(r if r < n else n)
        tables.append(nxt)
    return tables
