"""Seeded item lists for the three benchmark workloads.

An item is one front-door call, ``bridgeforge.cli.main(argv)``, plus the
parameters its oracle needs.  Every list is built here from the seed
alone, before any timing starts, with the harness's own integer
arithmetic; nothing in this module imports bridgeforge.

The item count of each workload is fixed, whatever the seed: the seed
sets the call order, and on epi_queries it also picks the last
reflection of each source, a choice that barely moves the search work.
That keeps the work of one round the same from seed to seed, so the
spread between runs measures the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Item:
    """One front-door call: ``cli.main(argv)`` with ``--json``.

    ``kind`` names the oracle that checks the payload, ``params`` holds
    what that oracle needs, and ``knot`` names the slope the call works
    on (for the per-knot layer ratios).
    """

    kind: str
    argv: tuple[str, ...]
    params: dict
    knot: str


# ---------------------------------------------------------------- battery

GRID = 6  # m, n in 1..6: p runs from 3 to 145


def knot_args(m: int, n: int, sign: int) -> list[str]:
    return ["--m", str(m), "--n", str(n), "--sign", "+" if sign > 0 else "-"]


def battery_grid(seed: int) -> list[Item]:
    """relator, meridians, pieces and freeness --t 2 on every knot of the
    grid, plus orbifold where the dihedral check applies (sign -,
    m = n >= 2).  The grid is fixed; the seed sets the call order."""
    items = []
    for m in range(1, GRID + 1):
        for n in range(1, GRID + 1):
            for sign in (1, -1):
                p = 4 * m * n + sign
                knot = f"{2 * n}/{p}"
                par = {"m": m, "n": n, "sign": sign, "p": p}
                k = knot_args(m, n, sign)
                items.append(Item("relator", ("relator", "--p", str(p), "--q", str(2 * n), "--json"), par, knot))
                items.append(Item("meridians", ("meridians", *k, "--json"), par, knot))
                items.append(Item("pieces", ("pieces", *k, "--json"), par, knot))
                items.append(Item("freeness", ("freeness", *k, "--t", "2", "--json"), {**par, "t": 2}, knot))
                if sign < 0 and m == n and m >= 2:
                    items.append(Item("orbifold", ("orbifold", "--m", str(m), "--json"), par, knot))
    random.Random(seed).shuffle(items)
    return items


# ------------------------------------------------------------------- epi

# Small hyperbolic genus-one targets 2n/(4mn +- 1).
EPI_TARGETS = ((2, 5), (2, 7), (2, 9), (4, 7), (4, 9), (6, 11))
# Reflection generators used to build sources: Farey edges (inf, k) for k
# in EPI_KS, and (r, r_j) for the Farey neighbours r_j = (q1 + j q)/(p1 + j p)
# of r = q/p, j in EPI_JS, where q1/p1 is the neighbour with 0 < p1 < p and
# q p1 - p q1 = 1.  All of them lie inside the program's default generator
# slice (|k| <= 6, and 6 neighbours either side of its own base), so every
# source is reached by its orbit search within three levels.
EPI_KS = range(-1, 3)
EPI_JS = range(-2, 2)

INF = (1, 0)


def reduce_pair(q: int, p: int) -> tuple[int, int]:
    """Projective (q, p) in lowest terms with p >= 0; infinity is (1, 0)."""
    if p == 0:
        return INF
    g = gcd(q, p)
    q, p = q // g, p // g
    return (-q, -p) if p < 0 else (q, p)


def reflect(edge, x):
    """Image of x under the reflection in the Farey edge (s, t).

    With A = [[q_s, q_t], [p_s, p_t]] (det +-1) the reflection is
    A diag(1, -1) A^-1: it fixes s and t and has determinant -1.
    """
    (q1, p1), (q2, p2) = edge
    det = q1 * p2 - q2 * p1
    if abs(det) != 1:
        raise ValueError(f"{edge} is not a Farey edge")
    q, p = x
    # A^-1 x = det * (p2 q - q2 p, -p1 q + q1 p); the sign drops projectively
    u, v = p2 * q - q2 * p, -p1 * q + q1 * p
    return reduce_pair(q1 * u - q2 * v, p1 * u - p2 * v)


def farey_neighbour(q: int, p: int) -> tuple[int, int]:
    """The neighbour q1/p1 of q/p with 0 < p1 < p and q p1 - p q1 = 1."""
    p1 = pow(q, -1, p)
    return ((q * p1 - 1) // p, p1)


def epi_generators(r):
    q, p = r
    q1, p1 = farey_neighbour(q, p)
    return [(INF, (k, 1)) for k in EPI_KS] + [
        (r, reduce_pair(q1 + j * q, p1 + j * p)) for j in EPI_JS
    ]


def _is_knot_source(s, r) -> bool:
    q, p = s
    return 0 < q < p and p % 2 == 1 and p >= 3 and s != r


def epi_prefixes(r):
    """Every reduced word of 0 to 2 reflections, as (prefix, base), that
    has a one-reflection completion landing on a knot slope in (0, 1).

    The orbit search's work is set by the prefix, so the list of
    prefixes is fixed and the seed picks only the last reflection.
    """
    gens = epi_generators(r)
    out = []
    words = [()]
    for _ in range(3):
        for word in words:
            for base in (r, INF):
                x = base
                for g in reversed(word):
                    x = reflect(g, x)
                if word and x in (r, INF):
                    continue  # the prefix folds back onto r or infinity
                completions = [
                    (g, s)
                    for g in gens
                    if (not word or g != word[0])
                    for s in [reflect(g, x)]
                    if s != x and _is_knot_source(s, r)
                ]
                if completions:
                    out.append((word, base, completions))
        words = [(g,) + w for w in words for g in gens if not w or g != w[0]]
    return out


def epi_queries(seed: int) -> list[Item]:
    """One ``epi`` query per prefix of every target; each source is the
    image of r or infinity under a word of 1 to 3 reflections, so the
    answer is "yes"."""
    rng = random.Random(seed)
    items = []
    for r in EPI_TARGETS:
        for word, base, completions in epi_prefixes(r):
            g, s = rng.choice(completions)
            par = {"source": s, "target": r, "reflections": len(word) + 1}
            argv = ("epi", "--source", f"{s[0]}/{s[1]}", "--target", f"{r[0]}/{r[1]}", "--json")
            items.append(Item("epi", argv, par, f"{s[0]}/{s[1]}"))
    rng.shuffle(items)
    return items


# --------------------------------------------------------------- numeric

# `reps` runs on every even-numerator slope q/p for these p, and on two
# genus-one slopes with p >= 65 ([4, 16] and [2, -34]).  The list is
# fixed: at a given p the cost of `reps` changes by up to a factor of two
# with q, so drawing q from the seed would move the round's work.
REPS_ALL_P = (9, 11, 13, 15, 17, 19)
REPS_LARGE = ((16, 65), (34, 67))
# Genus-one knots (m, n, sign) with p <= 9; 2/3 (the torus knot) is left out.
SCAN_KNOTS = ((1, 1, 1), (1, 2, -1), (2, 1, -1), (1, 2, 1), (2, 1, 1))
SCAN_SYLLABLES = 8


def numeric_reps(seed: int) -> list[Item]:
    """``reps`` on the slopes above and ``freeness --t 1 --scan-syllables 8``
    on SCAN_KNOTS; the seed sets the call order."""
    slopes = [(q, p) for p in REPS_ALL_P for q in range(2, p, 2) if gcd(q, p) == 1]
    items = [
        Item("reps", ("reps", "--p", str(p), "--q", str(q), "--json"), {"p": p, "q": q}, f"{q}/{p}")
        for q, p in slopes + list(REPS_LARGE)
    ]
    for m, n, sign in SCAN_KNOTS:
        p = 4 * m * n + sign
        par = {"m": m, "n": n, "sign": sign, "p": p, "t": 1, "syllables": SCAN_SYLLABLES}
        argv = ("freeness", *knot_args(m, n, sign), "--t", "1", "--scan-syllables", str(SCAN_SYLLABLES), "--json")
        items.append(Item("scan", argv, par, f"{2 * n}/{p}"))
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {
    "battery_grid": battery_grid,
    "epi_queries": epi_queries,
    "numeric_reps": numeric_reps,
}
