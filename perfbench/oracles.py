"""Correctness oracles for every benchmark item, computed apart from the program.

Each oracle takes the item's parameters and the parsed ``--json``
payload and returns a list of problems (empty when the payload is
right).  The expected values come from the paper's closed forms and
from the harness's own arithmetic, never from a stored copy of the
program's output:

* relator: the cyclic S-sequence of the word is ((S1, S2, S1, S2)) with
  S1, S2 from (m, n, sign), and the word has length 2p;
* meridians: x_l = w_x a w_x^-1 and y_l = w_y b^-1 w_y^-1, both freely
  reduced and alternating, and x_l is the image of y_l under
  a -> b^-1, b -> a^-1;
* pieces: 4p relator words and every battery verdict true;
* freeness: all sum(4^t) sign patterns pass; with a scan, 2(3^K - 1)
  words per root, (p - 1)/2 roots and no hits;
* orbifold: homology order 4m^2 - 1, and image orders 2m + 1 and
  2m - 1 for the arcs 1/(2m - 1) and 1/(2m + 1), both proper;
* epi: "yes", and every witness step re-checked with Fraction;
* reps: (p - 1)/2 distinct roots, and at each root the relator,
  rebuilt here from the epsilon formula, evaluates within REPS_TOL of
  the identity in mpmath at REPS_DPS digits.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}

REPS_TOL = 1e-9  # the front door's default --tol
REPS_DPS = 50
ROOT_SEPARATION = 1e-6


# ------------------------------------------------------------ word helpers

def parse_word(text: str) -> tuple[int, ...]:
    return tuple(_LETTER[c] for c in text)


def invert(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def is_freely_reduced(word) -> bool:
    return all(x != -y for x, y in zip(word, word[1:]))


def is_alternating(word) -> bool:
    return all(abs(x) != abs(y) for x, y in zip(word, word[1:]))


def cyclic_runs(word) -> list[int]:
    """Lengths of the maximal same-sign blocks around the cycle."""
    runs = []
    for i, x in enumerate(word):
        if i and (x > 0) == (word[i - 1] > 0):
            runs[-1] += 1
        else:
            runs.append(1)
    if len(runs) > 1 and (word[0] > 0) == (word[-1] > 0):
        runs[0] += runs.pop()
    return runs


def is_rotation(seq, target) -> bool:
    seq, target = list(seq), list(target)
    n = len(seq)
    return n == len(target) and any(seq[i:] + seq[:i] == target for i in range(n or 1))


def closed_form_cs(m: int, n: int, sign: int) -> list[int]:
    """((S1, S2, S1, S2)) for the slope 2n/(4mn + sign)."""
    if sign > 0:
        s1, s2 = [2 * m + 1], [2 * m] * (2 * n - 1)
    else:
        s1, s2 = [2 * m] * (2 * n - 1), [2 * m - 1]
    return (s1 + s2) * 2


def relator_word(p: int, q: int) -> tuple[int, ...]:
    """u = a uhat b uhat^-1, uhat = b^e1 a^e2 ..., e_i = (-1)^floor(iq/p)."""
    eps = [-1 if (i * q // p) % 2 else 1 for i in range(1, p)]
    uhat = tuple((2 if i % 2 else 1) * eps[i - 1] for i in range(1, p))
    return (1,) + uhat + (2,) + invert(uhat)


# ------------------------------------------------------------------ oracles

def check_relator(par, out) -> list[str]:
    word = parse_word(out["word"])
    errs = []
    if len(word) != 2 * par["p"] or out["length"] != 2 * par["p"]:
        errs.append(f"length {len(word)} != 2p = {2 * par['p']}")
    expected = closed_form_cs(par["m"], par["n"], par["sign"])
    if not is_rotation(cyclic_runs(word), expected):
        errs.append("cyclic S-sequence is not ((S1, S2, S1, S2))")
    return errs


def check_meridians(par, out) -> list[str]:
    w = {k: parse_word(v) for k, v in out["words"].items()}
    errs = []
    if w["x_l"] != w["w_x"] + (1,) + invert(w["w_x"]):
        errs.append("x_l != w_x a w_x^-1")
    if w["y_l"] != w["w_y"] + (-2,) + invert(w["w_y"]):
        errs.append("y_l != w_y b^-1 w_y^-1")
    for name in ("x_l", "y_l"):
        if not (is_freely_reduced(w[name]) and is_alternating(w[name])):
            errs.append(f"{name} is not reduced alternating")
    f_image = tuple((-2 if x > 0 else 2) if abs(x) == 1 else (-1 if x > 0 else 1) for x in w["y_l"])
    if f_image != w["x_l"]:
        errs.append("x_l is not the image of y_l under a -> b^-1, b -> a^-1")
    if out["verified"] is not True:
        errs.append("verified is not true")
    return errs


def check_pieces(par, out) -> list[str]:
    errs = []
    if out["elements"] != 4 * par["p"]:
        errs.append(f"{out['elements']} relator words, expected 4p = {4 * par['p']}")
    errs += [f"{name} is not true" for name, ok in out["checks"].items() if ok is not True]
    if set(out["checks"]) != {"piece_prop", "three_piece", "C4", "T4"}:
        errs.append(f"unexpected battery {sorted(out['checks'])}")
    return errs


def check_freeness(par, out) -> list[str]:
    errs = []
    patterns = sum(4 ** t for t in range(1, par["t"] + 1))
    if out["patterns_checked"] != patterns or len(out["results"]) != patterns:
        errs.append(f"{out['patterns_checked']} sign patterns, expected {patterns}")
    if out["all_ok"] is not True or not all(r["ok"] is True for r in out["results"]):
        errs.append("a sign pattern failed")
    return errs


def check_scan(par, out) -> list[str]:
    errs = check_freeness(par, out)
    scan = out["scan"]
    words = 2 * (3 ** par["syllables"] - 1)
    if scan["words_checked"] != words:
        errs.append(f"words_checked {scan['words_checked']} != 2(3^K - 1) = {words}")
    if len(scan["roots"]) != (par["p"] - 1) // 2:
        errs.append(f"{len(scan['roots'])} roots, expected (p - 1)/2")
    if scan["hits"]:
        errs.append(f"{len(scan['hits'])} scan hits")
    return errs


def check_orbifold(par, out) -> list[str]:
    m = par["m"]
    p = 4 * m * m - 1
    errs = []
    if out["slope"] != f"{2 * m}/{p}" or out["homology_order"] != p:
        errs.append(f"slope {out['slope']} / order {out['homology_order']}, expected {2 * m}/{p}")
    expected = {f"1/{2 * m - 1}": 2 * m + 1, f"1/{2 * m + 1}": 2 * m - 1}
    got = {v["arc_slope"]: v for v in out["verdicts"]}
    if set(got) != set(expected):
        errs.append(f"arcs {sorted(got)}, expected {sorted(expected)}")
        return errs
    for arc, order in expected.items():
        v = got[arc]
        if v["order_in_homology"] != order or v["dihedral_image_order"] != 2 * order:
            errs.append(f"arc {arc}: order {v['order_in_homology']}, expected {order}")
        if v["proper"] is not True:
            errs.append(f"arc {arc} is not proper")
    return errs


def _slope(text: str):
    """'q/p' as a Fraction, or None for 1/0 (infinity)."""
    q, p = (int(x) for x in text.split("/"))
    return None if p == 0 else Fraction(q, p)


def _pair(x):
    return (1, 0) if x is None else (x.numerator, x.denominator)


def reflect_fraction(edge, x):
    """Reflection in the Farey edge (s, t), applied to x, in Fraction
    arithmetic (None is infinity).  It maps x to its harmonic conjugate
    x' with respect to s and t: 1/(x' - s) = 2/(t - s) - 1/(x - s)."""
    s, t = edge
    if s is None:
        s, t = t, s
    if t is None:  # fixes infinity: x -> 2 s - x
        return None if x is None else 2 * s - x
    if x is None:
        return (s + t) / 2
    if x == s:
        return x
    inv = 2 / (t - s) - 1 / (x - s)
    return None if inv == 0 else s + 1 / inv


def check_epi(par, out) -> list[str]:
    errs = []
    if out["verdict"] != "yes":
        return [f"verdict {out['verdict']!r}, expected 'yes'"]
    q, p = par["target"]
    r = Fraction(q, p)
    base = Fraction(pow(q, -1, p), p) if (out["route"] or "").endswith("of r'") else r
    source = Fraction(*par["source"])
    if out["source"] != f"{source.numerator}/{source.denominator}":
        errs.append(f"source echoed as {out['source']}")
    steps = out["witness"]
    if not steps:
        return errs + ["empty witness"]
    rt = source - (source.numerator // source.denominator)
    end = rt + 1 if (out["route"] or "").startswith("rt+1") else rt
    at = _slope(steps[0]["from"])
    if at is not None and at != base:
        errs.append(f"chain starts at {steps[0]['from']}, not at r or infinity")
    for step in steps:
        edge = tuple(_slope(e) for e in step["edge"])
        (q1, p1), (q2, p2) = (_pair(e) for e in edge)
        if abs(q1 * p2 - q2 * p1) != 1:
            errs.append(f"{step['edge']} is not a Farey edge")
            continue
        if None not in edge and base not in edge:
            errs.append(f"{step['edge']} has no endpoint at infinity or r")
        frm, to = _slope(step["from"]), _slope(step["to"])
        if frm != at:
            errs.append(f"chain broken at {step['from']}")
        if reflect_fraction(edge, frm) != to:
            errs.append(f"reflection in {step['edge']} does not map {step['from']} to {step['to']}")
        at = to
    if at != end:
        errs.append(f"chain ends at {at}, not at the source {end}")
    return errs


def _mp_residual(word, omega) -> float:
    a = mpmath.matrix([[1, 1], [0, 1]])
    b = mpmath.matrix([[1, 0], [omega, 1]])
    gens = {1: a, -1: mpmath.inverse(a), 2: b, -2: mpmath.inverse(b)}
    img = mpmath.eye(2)
    for x in word:
        img = img * gens[x]
    return float(mpmath.mnorm(img - mpmath.eye(2), 1))


def check_reps(par, out) -> list[str]:
    p, q = par["p"], par["q"]
    errs = []
    if out["slope_used"] != f"{q}/{p}":
        errs.append(f"slope_used {out['slope_used']}, expected {q}/{p}")
    roots = [complex(r["omega"]) for r in out["roots"]]
    if len(roots) != (p - 1) // 2:
        errs.append(f"{len(roots)} roots, expected (p - 1)/2 = {(p - 1) // 2}")
    if any(abs(x - y) <= ROOT_SEPARATION for i, x in enumerate(roots) for y in roots[:i]):
        errs.append("roots are not distinct")
    word = relator_word(p, q)
    with mpmath.workdps(REPS_DPS):
        for omega in roots:
            res = _mp_residual(word, mpmath.mpc(omega.real, omega.imag))
            if not res <= REPS_TOL:
                errs.append(f"relator residual {res:.3e} at omega = {omega}")
    return errs


ORACLES = {
    "relator": check_relator,
    "meridians": check_meridians,
    "pieces": check_pieces,
    "freeness": check_freeness,
    "scan": check_scan,
    "orbifold": check_orbifold,
    "epi": check_epi,
    "reps": check_reps,
}
