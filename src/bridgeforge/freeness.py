"""Word-level core of the no-relation argument for the long meridian pair.

A hypothetical relation x_l^k1 y_l^l1 ... x_l^kt y_l^lt = 1 is
represented by an explicit cyclically reduced word; its sign pattern
determines a cyclically alternating word whose cyclic S-sequence has an
exact closed form.  The forbidden-term facts extracted from that closed
form are what the small-cancellation contradiction consumes, and the
numeric no-relation scan adds evidence from parabolic matrix images.

The checks compose that S-sequence from the runs of the four factors
x_l^+-1, y_l^+-1, each validated once, and check only the junctions
between factors (alternating_cs_from_runs); alternating_relation_word
builds the whole word letter by letter and is the reference it is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sl2_oracle
from .meridians import MeridianWords, long_meridian_words
from .slope import GenusOneKnot
from .words import (
    Word,
    concat,
    cyclic_seq_eq,
    free_reduce,
    inverse,
    is_cyclically_alternating,
    is_cyclically_reduced,
    letter_power,
)


class UnsupportedCaseError(ValueError):
    """No closed form exists for this input; use the bound check instead."""


def relation_word(knot: GenusOneKnot, exponent_pairs) -> Word:
    """The cyclically reduced word x_l^k1 y_l^l1 ... for nonzero exponents.

    Assembled as w_x a^k1 w_x^-1 w_y b^-l1 w_y^-1 ...; by construction no
    free reduction may occur, and a violation raises.
    """
    pairs = [(int(k), int(l)) for k, l in exponent_pairs]
    if not pairs or any(k == 0 or l == 0 for k, l in pairs):
        raise ValueError("exponents must be nonzero and the pattern nonempty")
    mw = long_meridian_words(knot)
    parts = []
    for k, l in pairs:
        parts += [mw.w_x, letter_power(1, k), inverse(mw.w_x)]
        parts += [mw.w_y, letter_power(-2, l), inverse(mw.w_y)]
    w = concat(*parts)
    if free_reduce(w) != w or not is_cyclically_reduced(w):
        raise AssertionError("relation word unexpectedly reduced")
    return w


def _checked_signs(sign_pairs) -> list[tuple[int, int]]:
    signs = [(int(ex), int(ey)) for ex, ey in sign_pairs]
    if not signs or any(abs(ex) != 1 or abs(ey) != 1 for ex, ey in signs):
        raise ValueError("sign pattern entries must be +-1")
    return signs


def alternating_relation_word(
    knot: GenusOneKnot, sign_pairs, mw: MeridianWords | None = None
) -> Word:
    """The cyclically alternating word x_l^e1x y_l^e1y ... for signs +-1.

    mw is long_meridian_words(knot); a caller that loops over sign
    patterns builds it once and passes it in.  This is the letter-by-letter
    reference for alternating_cs_from_runs.
    """
    signs = _checked_signs(sign_pairs)
    if mw is None:
        mw = long_meridian_words(knot)
    parts = []
    for ex, ey in signs:
        parts.append(mw.x_l if ex == 1 else inverse(mw.x_l))
        parts.append(mw.y_l if ey == 1 else inverse(mw.y_l))
    w = concat(*parts)
    if not (is_cyclically_reduced(w) and is_cyclically_alternating(w)):
        raise AssertionError("sign-pattern word failed to be alternating")
    return w


def alternating_cs_from_runs(
    knot: GenusOneKnot, sign_pairs, mw: MeridianWords | None = None
) -> tuple[int, ...]:
    """cyclic_s_sequence(alternating_relation_word(knot, sign_pairs, mw)),
    composed from the factors' runs without building the word.

    Each factor x_l^+-1, y_l^+-1 is checked and its S-sequence taken once
    per MeridianWords (MeridianWords.factor_runs).  A pattern then checks
    only its junctions, the cyclic one from the last factor to the first
    included: the word is cyclically alternating, and so cyclically
    reduced, exactly when its factors are and no junction joins two
    letters of one generator.  The factors' runs are concatenated, the
    two runs at a junction merge when its letters have one sign, and the
    first and last runs merge as in cyclic_s_sequence.  The cost is
    O(runs), not O(letters), per pattern.
    """
    signs = _checked_signs(sign_pairs)
    if mw is None:
        mw = long_meridian_words(knot)
    x_runs, y_runs = mw.factor_runs
    factors = [f for ex, ey in signs for f in (x_runs[ex], y_runs[ey])]
    runs: list[int] = []
    prev = factors[-1][1]  # the last letter before the first factor, cyclically
    for first, last, seq, ok in factors:
        if not ok or abs(prev) == abs(first):
            raise AssertionError("sign-pattern word failed to be alternating")
        if runs and (prev > 0) == (first > 0):
            runs[-1] += seq[0]
            runs += seq[1:]
        else:
            runs += seq
        prev = last
    if len(runs) >= 2 and (factors[0][0] > 0) == (prev > 0):
        runs[0] += runs.pop()
    return tuple(runs)


def alternating_cs_closed_form(knot: GenusOneKnot, sign_pairs) -> tuple[int, ...]:
    """Exact closed form of the cyclic S-sequence of the sign-pattern word.

    Per factor (in order x_1, y_1, x_2, y_2, ...) the contribution is a
    run of 2m-blocks followed by an oriented pair: (m, m+1) for positive
    slope sign, (m, m-1) for negative sign with m >= 2, where the pair is
    reversed when the factor exponent differs from (-1)^n.  The m = 1
    negative family contributes asymmetric blocks of 2's around a 3 and
    has no closed form at all for (m, n) = (1, 1).
    """
    m, n = knot.m, knot.n
    eps = 1 if n % 2 == 0 else -1
    flat = [e for pair in sign_pairs for e in pair]
    if not flat:
        raise ValueError("empty sign pattern")
    out: list[int] = []
    if knot.sign > 0 or m >= 2:
        run = [2 * m] * (2 * n - 1)
        pair_eps = [m, m + 1] if knot.sign > 0 else [m, m - 1]
        for e in flat:
            out += run + (pair_eps if e == eps else pair_eps[::-1])
    elif n >= 2:
        for e in flat:
            left = n - 1 if e == eps else n - 2
            right = n - 2 if e == eps else n - 1
            out += [2] * (1 + left) + [3] + [2] * right
    else:
        raise UnsupportedCaseError(
            "no closed form for the (1, 1, -) slope; terms lie in {2, 3, 4}"
        )
    return tuple(out)


def _forbidden_terms_ok(knot: GenusOneKnot, cs) -> bool:
    m, n = knot.m, knot.n
    if knot.sign > 0:
        return all(t < 2 * m + 1 for t in cs)
    if m >= 2:
        return all(t != 2 * m - 1 for t in cs)
    if n >= 2:
        return all(t != 1 for t in cs)
    return all(t in (2, 3, 4) for t in cs)


def verify_alternating_cs(
    knot: GenusOneKnot, sign_pairs, mw: MeridianWords | None = None
) -> bool:
    """Computed cyclic S-sequence vs closed form, plus forbidden terms.

    For the (1, 1, -) slope only the membership bound {2, 3, 4} applies.
    The sequence comes from alternating_cs_from_runs, which mw is passed to.
    """
    cs = alternating_cs_from_runs(knot, sign_pairs, mw)
    try:
        closed = alternating_cs_closed_form(knot, sign_pairs)
    except UnsupportedCaseError:
        closed = None
    if closed is not None and not cyclic_seq_eq(cs, closed):
        return False
    return _forbidden_terms_ok(knot, cs)


@dataclass
class ScanHit:
    word: str
    omega: complex
    distance: float


@dataclass
class ScanReport:
    knot: GenusOneKnot
    max_syllables: int
    tol: float
    roots: list[complex]
    max_residual: float
    words_checked: int
    min_distance: float
    hits: list[ScanHit] = field(default_factory=list)
    # roots walked; each other root took a walked root's results by conjugation
    roots_scanned: int = 0
    # (omega, residual) of each root the relator-residual gate dropped
    dropped_roots: list[tuple[complex, float]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.hits


_SYLLABLES = ("x", "X", "y", "Y")
# relator residual a representation root must meet to enter the scan
_REP_TOL = 1e-9


def _walk(
    mw: MeridianWords, rep: sl2_oracle.NumericRep, max_syllables: int, tol: float, best: float
):
    """Every word of the scan at one root: (words walked, the running
    minimum distance updated from best, hits as (word, distance))."""
    x = sl2_oracle.evaluate(mw.x_l, rep)
    y = sl2_oracle.evaluate(mw.y_l, rep)
    gens = (x, sl2_oracle.mat_inv(x), y, sl2_oracle.mat_inv(y))
    # nxt[i]: the letters that may follow letter i (not its inverse)
    nxt = [[(j, *gens[j]) for j in range(4) if j != i ^ 1] for i in range(4)]
    stack = [(i, 1, *gens[i]) for i in range(4)]
    pop, push = stack.pop, stack.append
    path = [0]  # path[k]: the syllable index at depth k + 1 of the current word
    hits = []
    count = 0
    while stack:
        i, depth, a, b, c, d = pop()
        count += 1
        path[depth - 1] = i
        abs_b = abs(b)
        abs_c = abs(c)
        # nested as in dist_pm_identity, so a nan entry gives the same scale
        scale = max(1.0, max(abs(a), abs_b, abs_c, abs(d)))
        bound = max(abs_b, abs_c) / scale
        if not (bound >= best and bound > tol):
            plus = max(abs(a - 1), abs_b, abs_c, abs(d - 1))
            minus = max(abs(a + 1), abs_b, abs_c, abs(d + 1))
            dist = min(plus, minus) / scale
            if dist < best:
                best = dist
            if dist <= tol:
                hits.append(("".join(_SYLLABLES[k] for k in path[:depth]), dist))
        if depth < max_syllables:
            depth += 1
            if depth > len(path):
                path.append(0)
            for j, e, f, g, h in nxt[i]:
                push((j, depth, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
    return count, best, hits


def no_relation_scan(
    knot: GenusOneKnot,
    max_syllables: int = 6,
    tol: float = 1e-3,
    mw: MeridianWords | None = None,
) -> ScanReport:
    """Numeric evidence scan over words in the long meridian pair.

    Enumerates every freely reduced nonempty word in x_l^-+1, y_l^-+1
    with at most max_syllables syllables and evaluates it at every
    parabolic representation root of the knot's slope; any image within
    tol of +-identity is reported as a hit.  An empty report is evidence,
    not proof, of freeness.  mw is long_meridian_words(knot); a caller
    that holds it passes it in.

    The words are walked in pre-order on one explicit stack, so a word
    costs one 2x2 product with its parent's image, written out as in
    sl2_oracle.mat_mul.  Its distance from +-I is that of
    sl2_oracle.dist_pm_identity, but both of that function's maxima are
    at least max(|b|, |c|) and division is monotone, so a word whose
    max(|b|, |c|) / scale already reaches the running minimum and exceeds
    tol can change neither; the rest of its distance is skipped.

    numeric_reps returns conjugate roots as exact conjugates, and at
    conj(w) every word's image is the entrywise conjugate of its image at
    w, at the same distance bit for bit.  So a root with imag < 0 whose
    exact conjugate is also a root is not walked: it takes the hits of
    its conjugate's walk, each with its own omega.  Hits are listed in
    root order, as a walk of every root would list them, and
    words_checked counts words per root; roots_scanned counts the roots
    actually walked.
    """
    if max_syllables < 1:
        raise ValueError(f"max_syllables must be at least 1, got {max_syllables}")
    if mw is None:
        mw = long_meridian_words(knot)
    data = sl2_oracle.riley_polynomials(knot.fraction)
    reps = sl2_oracle.numeric_reps(data, tol=_REP_TOL)
    if not reps:
        raise RuntimeError("no parabolic representation root below tolerance")
    report = ScanReport(
        knot=knot,
        max_syllables=max_syllables,
        tol=tol,
        roots=[rep.omega for rep in reps],
        max_residual=max(rep.residual for rep in reps),
        words_checked=0,
        min_distance=float("inf"),
        dropped_roots=list(reps.dropped),
    )
    at = {rep.omega: rep for rep in reps}
    walked: dict[complex, list[tuple[str, float]]] = {}  # walked root -> its hits
    best = report.min_distance
    for rep in reps:
        omega = rep.omega
        source = omega.conjugate() if omega.imag < 0 and omega.conjugate() in at else omega
        if source not in walked:
            report.words_checked, best, walked[source] = _walk(
                mw, at[source], max_syllables, tol, best
            )
        report.hits += [ScanHit(word, omega, dist) for word, dist in walked[source]]
    report.roots_scanned = len(walked)
    report.min_distance = best
    return report
