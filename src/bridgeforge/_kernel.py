"""Piece kernels behind the small-cancellation analysis.

The symmetrized set of a cyclic word u of length n consists of the n
rotations of u and the n rotations of u^-1.  A piece is a common prefix
of two distinct elements of that set, so the longest piece starting at a
given rotation offset is the longest prefix that offset shares with any
other offset.

max_piece_table finds those maxima from the sorted order of the 2n
rotations: the longest common prefix (LCP) a rotation shares with any
other is the larger of its LCPs with its two sorted neighbours (the
suffix-array idea of Kasai et al., CPM 2001).  Rotations are length-n
slices of the doubled words encoded as bytes, so sorting and prefix
comparison run in C.
"""

IMPL = "pure"


def _lcp(a, b):
    """Length of the longest common prefix of two equal-length bytes."""
    lo, hi = 0, len(a)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_piece_table(letters):
    """Longest-piece lengths per rotation offset, for u and for u^-1.

    Returns (fwd, bwd): fwd[s] is the largest L such that the length-L
    cyclic subword of u starting at offset s is a piece; bwd[s] the same
    for u^-1.  Entries are 0 where even the single letter is unique, and
    n where two of the 2n rotations are the same word.
    """
    n = len(letters)
    if n == 0:
        return [], []
    # letters are +-1, +-2; shift them into byte range
    fwd_row = bytes(x + 2 for x in letters) * 2
    bwd_row = bytes(2 - x for x in reversed(letters)) * 2
    slices = [fwd_row[s:s + n] for s in range(n)]
    slices += [bwd_row[s:s + n] for s in range(n)]
    order = sorted(range(2 * n), key=slices.__getitem__)
    best = [0] * (2 * n)
    for i, j in zip(order, order[1:]):
        lcp = _lcp(slices[i], slices[j])
        if lcp > best[i]:
            best[i] = lcp
        if lcp > best[j]:
            best[j] = lcp
    return best[:n], best[n:]


def min_pieces_span(piece_len, start, length):
    """Minimal number of pieces covering the cyclic span [start, start+length).

    piece_len is a max_piece_table row.  Works as a shortest path on the
    cut positions: pieces are prefix-closed, so the positions reachable
    with k pieces form an interval and one frontier sweep per k suffices.
    Returns -1 when the span is not a product of pieces at all.
    """
    n = len(piece_len)
    if length == 0:
        return 0
    if not 0 < length <= n:
        raise ValueError("span length must be between 1 and len(piece_len)")
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


def reach_table(piece_len, kmax):
    """reach[k][s]: longest span from offset s coverable by <= k pieces.

    reach[0] is all zeros; entries are capped at n.
    """
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
