"""Command-line front end and the batch verification battery.

Every subcommand accepts --json: one line of sorted-key JSON under the
versioned "bridge-forge/1" schema.  Exit codes: 0 all checks pass, 1 any
check failed or a check could not run (a RuntimeError, such as a matrix
scan finding no simple root of the Riley polynomial mod any prime tried,
or an AssertionError, a word the library built failing its own validation
in presentation, meridians, freeness or farey, such as a sign-pattern
factor MeridianWords refuses; an "error:" line goes to
stderr; or stdout closed by its reader, with no line), 2 usage error
(--t above MAX_T and --scan-syllables above freeness.MAX_SYLLABLES
included), 3 resource truncation.  The freeness
scan block names its one exact pair by prime, modulus (a power of prime)
and alpha, and its hits by their class representatives under that pair.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from typing import NamedTuple

from . import (
    _kernel,
    farey,
    freeness,
    meridians,
    orbifold,
    presentation,
    sl2_oracle,
    smallcancel,
)
from .slope import Frac, GenusOneKnot, parse_fraction
from .words import parse_word, s_sequence, word_str

SCHEMA = "bridge-forge/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3

# freeness --t t lists sum(4^k, k <= t) sign patterns: 5,460 at t = 6; the
# junction blocks settle every t, the list stays as the benchmark counts it
MAX_T = 6


def _emit(payload: dict, as_json: bool, human_lines: Callable[[], list[str]]) -> None:
    """Print the payload as one line of sorted-key JSON (C encoder), or
    else the lines human_lines() returns, which --json never builds."""
    if as_json:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        for line in human_lines():
            print(line)


def _knot_from_args(args) -> GenusOneKnot:
    return GenusOneKnot(args.m, args.n, 1 if args.sign == "+" else -1)


def _slope_from_args(args) -> Frac:
    # Frac reduces q/p, so a non-coprime pair must be caught before it
    if math.gcd(args.p, args.q) != 1:
        raise ValueError(f"--p {args.p} and --q {args.q} must be coprime")
    return Frac(args.q, args.p)


def _parse_slope(text: str, flag: str) -> Frac:
    """parse_fraction for a slope flag, naming the flag when text is no
    q/p; a q/p with a common factor is a usage error too: Frac would
    reduce it and answer for another slope."""
    try:
        slope = parse_fraction(text)
    except (ValueError, ZeroDivisionError):  # no integers, or 0/0
        raise ValueError(f"{flag} {text} is not a slope q/p") from None
    num, _, den = text.partition("/")
    if den and math.gcd(int(num), int(den)) > 1:
        raise ValueError(f"{flag} {text} is not in lowest terms")
    return slope


def _cmd_relator(args) -> int:
    rel = presentation.relator(_slope_from_args(args))
    # no run crosses the seam, so the S-sequence is the cyclic one
    payload = {
        "command": "relator",
        "p": args.p,
        "q": args.q,
        "word": word_str(rel.u),
        "length": len(rel.u),
        "s_sequence": list(rel.runs),
        "cyclic_s_sequence": list(rel.runs),
        "epsilons": list(rel.epsilons),
    }
    _emit(payload, args.json, lambda: [
        f"relator for slope {args.q}/{args.p}:",
        f"  u  = {payload['word']}   (length {len(rel.u)})",
        f"  S  = {rel.runs}",
        f"  CS = {rel.runs}",
    ])
    return EXIT_PASS


def _cmd_meridians(args) -> int:
    knot = _knot_from_args(args)
    mw = meridians.long_meridian_words(knot)
    d0, d1 = mw.d0_d1
    fields = {
        "d0": d0, "d1": d1,
        "w_x": mw.w_x, "w_y": mw.w_y,
        "x_l": mw.x_l, "y_l": mw.y_l,
    }
    payload = {
        "command": "meridians",
        "m": knot.m, "n": knot.n, "sign": knot.sign,
        "slope": str(knot.fraction),
        "words": {k: word_str(v) for k, v in fields.items()},
        "s_sequences": {k: list(s_sequence(v)) for k, v in fields.items()},
        "verified": meridians.verify_meridian_forms(knot, mw),
    }
    _emit(payload, args.json, lambda: [
        f"long meridian pair for {knot} (slope {knot.fraction}):",
        *(f"  {name:3s} = {payload['words'][name]}   S = {tuple(payload['s_sequences'][name])}"
          for name in fields),
        f"  raw/closed-form agreement: {payload['verified']}",
    ])
    return EXIT_PASS if payload["verified"] else EXIT_FAIL


def _cmd_pieces(args) -> int:
    knot = _knot_from_args(args)
    ctx = CheckContext(knot)
    R = ctx.R
    if args.word is not None:
        w = parse_word(args.word)
        # one search: a subword is a piece exactly when it is one piece
        try:
            mp = smallcancel.min_pieces(w, R)
        except ValueError:  # w is no subword of an element
            mp = None
        payload = {
            "command": "pieces",
            "m": knot.m, "n": knot.n, "sign": knot.sign,
            "word": args.word,
            "is_piece": mp == 1 if w else smallcancel.is_piece(w, R),
            "min_pieces": None if mp is smallcancel.UNREPRESENTABLE else mp,
        }
        if mp is None:
            payload["note"] = "not a subword of any relator word"
        _emit(payload, args.json, lambda: [
            f"word {args.word} against the symmetrized set of {knot}:",
            *([f"  not a subword of any relator word (is_piece = {payload['is_piece']}, "
               "min_pieces undefined)"] if mp is None else
              [f"  is_piece   = {payload['is_piece']}", f"  min_pieces = {mp}"]),
        ])
        return EXIT_PASS
    checks = {c.name: c.run(ctx) for c in CHECKS if c.name in _PIECE_CHECKS}
    payload = {
        "command": "pieces",
        "m": knot.m, "n": knot.n, "sign": knot.sign,
        "elements": len(R),
        "checks": checks,
    }
    _emit(payload, args.json, lambda: [
        f"small cancellation battery for {knot} ({len(R)} relator words):",
        *(f"  {name:12s} {'pass' if ok else 'FAIL'}" for name, ok in checks.items()),
    ])
    return EXIT_PASS if all(checks.values()) else EXIT_FAIL


def _sign_patterns(t_max: int):
    # by t, then lexicographically with +1 first
    pairs = list(itertools.product((1, -1), repeat=2))
    return [p for t in range(1, t_max + 1) for p in itertools.product(pairs, repeat=t)]


def _dropped_payload(dropped) -> list:
    """[[omega, residual], ...] for the roots the residual gate dropped; a
    residual that is not finite (nan, inf) becomes null."""
    return [[str(z), r if math.isfinite(r) else None] for z, r in dropped]


def _check_scan_syllables(k: int) -> None:
    if not 0 <= k <= freeness.MAX_SYLLABLES:
        raise ValueError(
            f"--scan-syllables must be at least 0 and at most {freeness.MAX_SYLLABLES}, got {k}"
        )


def _cmd_freeness(args) -> int:
    if not 1 <= args.t <= MAX_T:
        raise ValueError(f"--t must be between 1 and {MAX_T}, got {args.t}")
    _check_scan_syllables(args.scan_syllables)
    ctx = CheckContext(_knot_from_args(args), args.scan_syllables)
    knot = ctx.knot
    results = []
    all_ok = True
    for pattern in _sign_patterns(args.t):
        ok = freeness.verify_alternating_cs(ctx.junction_verdicts, pattern)
        all_ok &= ok
        results.append({"pattern": [list(p) for p in pattern], "ok": ok})
    payload = {
        "command": "freeness",
        "m": knot.m, "n": knot.n, "sign": knot.sign,
        "t_max": args.t,
        "patterns_checked": len(results),
        "all_ok": all_ok,
        "results": results,
    }
    if args.scan_syllables:
        report = ctx.scan_report
        (rep,) = report.roots
        # the float roots are margins only; the verdict rests on the exact scan
        reps = sl2_oracle.numeric_reps(ctx.riley)
        max_residual = max((r.residual for r in reps), default=None)
        payload["scan"] = {
            "max_syllables": report.max_syllables,
            "words_checked": report.words_checked,
            "classes_checked": report.classes_checked,
            "exact": {
                "prime": rep.prime,
                "modulus": rep.modulus,
                "alpha": rep.alpha,
                "words_nontrivial": report.words_nontrivial,
            },
            "hits": report.hits,
            "roots": [str(r.omega) for r in reps],
            "dropped_roots": _dropped_payload(reps.dropped),
            "max_residual": max_residual,
        }
        all_ok &= report.clean

    def lines():
        out = [
            f"alternating-word cyclic S-sequence checks for {knot}:",
            f"  {len(results)} sign patterns with t <= {args.t}: "
            f"{'all pass' if payload['all_ok'] else 'FAILURES'}",
        ]
        if args.scan_syllables:
            out += [
                f"  matrix scan: {report.words_checked} words in {report.classes_checked} classes "
                f"at w = {rep.alpha} mod {rep.modulus}, "
                f"{report.words_nontrivial} proven nontrivial, hits: {len(report.hits)}",
                f"  float margins: {len(reps)} roots, {len(reps.dropped)} dropped, "
                "max relator residual "
                + ("none" if max_residual is None else f"{max_residual:.3e}"),
            ]
        return out

    _emit(payload, args.json, lines)
    return EXIT_PASS if all_ok else EXIT_FAIL


def _cmd_reps(args) -> int:
    f = _slope_from_args(args)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a finite number above 0, got {args.tol}")
    data = sl2_oracle.riley_polynomials(f)
    reps = sl2_oracle.numeric_reps(data, tol=args.tol)
    payload = {
        "command": "reps",
        "p": args.p, "q": args.q,
        "slope_used": str(data.fraction),
        "polynomial": list(data.poly),
        "roots": [
            {"omega": str(rep.omega), "residual": rep.residual} for rep in reps
        ],
        "dropped_roots": _dropped_payload(reps.dropped),
    }
    _emit(payload, args.json, lambda: [
        f"parabolic representations of slope {args.q}/{args.p}"
        + (f" (via mirror slope {data.fraction})" if str(data.fraction) != f"{args.q}/{args.p}" else "")
        + ":",
        f"  defining polynomial coefficients (low->high): {list(data.poly)}",
        *(f"  omega = {rep.omega:.12g}   relator residual {rep.residual:.3e}" for rep in reps),
        *(f"  dropped omega = {z:.12g}   relator residual {r:.3e}" for z, r in reps.dropped),
        *([] if reps else [f"  no root met --tol {args.tol:g}"]),
    ])
    return EXIT_PASS if reps else EXIT_FAIL


def _cmd_orbifold(args) -> int:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    r = Frac(2 * args.m, 4 * args.m * args.m - 1)
    if args.slope:
        verdicts = [orbifold.subgroup_verdict(_parse_slope(args.slope, "--slope"), r)]
    elif args.m < 2:
        raise ValueError("the standard arcs need --m at least 2; give --slope")
    else:
        verdicts = orbifold.standard_arcs(args.m)
    payload = {
        "command": "orbifold",
        "m": args.m,
        "slope": str(r),
        "homology_order": r.den,
        "verdicts": [
            {
                "arc_slope": str(v.slope),
                "order_in_homology": v.order_in_homology,
                "dihedral_image_order": v.dihedral_image_order,
                "proper": v.proper,
            }
            for v in verdicts
        ],
    }
    _emit(payload, args.json, lambda: [
        f"dihedral quotient data for slope {r} (homology order {r.den}):",
        *(f"  arc {str(v.slope):8s} image order {v.dihedral_image_order:4d}  "
          f"{'proper' if v.proper else 'NOT proper'}"
          for v in verdicts),
    ])
    return EXIT_PASS if all(v.proper for v in verdicts) else EXIT_FAIL


def _cmd_epi(args) -> int:
    result = farey.epimorphism_exists(
        _parse_slope(args.source, "--source"), _parse_slope(args.target, "--target")
    )
    payload = {
        "command": "epi",
        "source": str(result.source),
        "target": str(result.target),
        "verdict": result.verdict,
        "route": result.route,
        "witness": result.witness,
        "algorithm": "gamma_r_descent",
        "searches": [
            {
                "route": route,
                "slope": str(s.target),
                "orbit_of": [str(s.r), "1/0"],
                "found": s.found,
                "landing": str(s.landing),
                "reflections": s.visited,
            }
            for route, s in result.searches.items()
        ],
        "reflections": sum(s.visited for s in result.searches.values()),
        "basis": farey.EPI_BASIS,
    }
    _emit(payload, args.json, lambda: [
        f"epimorphism G(K({result.source})) ->> G(K({result.target})): {result.verdict}",
        *([f"  via {result.route}, {len(result.witness)} reflections"] if result.route else [
            *(f"  {route}: {s.target} is not in the orbit of {{{s.r}, 1/0}} "
              f"(descent stopped at {s.landing})"
              for route, s in result.searches.items()),
            f"  basis: {farey.EPI_BASIS}",
        ]),
    ])
    return EXIT_PASS


class CheckContext:
    """What a check reads: the knot, the matrix-scan depth (0 for no scan)
    and, each built on first use and then shared by all that read it, the
    knot's relator, symmetrized set, long meridian words, the verdicts of
    their eight junction blocks, Riley polynomial and matrix scan."""

    def __init__(self, knot: GenusOneKnot, scan_syllables: int = 0):
        self.knot = knot
        self.scan_syllables = scan_syllables

    @functools.cached_property
    def rel(self) -> presentation.Relator:
        return presentation.relator(self.knot.fraction)

    @functools.cached_property
    def R(self) -> smallcancel.SymmetrizedSet:
        return smallcancel.SymmetrizedSet(self.rel.u)

    @functools.cached_property
    def meridian_words(self) -> meridians.MeridianWords:
        return meridians.long_meridian_words(self.knot)

    @functools.cached_property
    def junction_verdicts(self) -> dict:
        return freeness.junction_verdicts(self.knot, self.meridian_words)

    @functools.cached_property
    def riley(self) -> sl2_oracle.RileyData:
        return sl2_oracle.riley_polynomials(self.knot.fraction)

    @functools.cached_property
    def scan_report(self) -> freeness.ScanReport:
        return freeness.no_relation_scan(self.scan_syllables, self.meridian_words, self.riley)


class Check(NamedTuple):
    """One battery check: run(ctx) is True when it passes.  On a knot
    where applies(knot) is False it does not run and reports unsupported."""

    name: str
    run: Callable[[CheckContext], bool]
    applies: Callable[[GenusOneKnot], bool] = lambda knot: True


# The battery, in report order.  verify-all runs every check (matrix_scan
# only with --scan-syllables above 0), pieces the _PIECE_CHECKS.  Each run
# looks its library function up when it runs, so tracing sees the call.
CHECKS = (
    Check("relator_cs", lambda ctx: presentation.verify_cs_closed_form(ctx.knot, ctx.rel)),
    Check(
        "meridian_forms",
        lambda ctx: meridians.verify_meridian_forms(ctx.knot, ctx.meridian_words),
    ),
    Check("piece_prop", lambda ctx: smallcancel.verify_piece_prop(ctx.knot, ctx.rel)),
    Check("three_piece", lambda ctx: smallcancel.verify_three_piece_property(ctx.knot, ctx.rel)),
    Check("C4", lambda ctx: smallcancel.check_C(ctx.R, 4)),
    Check("T4", lambda ctx: smallcancel.check_T(ctx.R)),
    # a sign pattern's cyclic S-sequence is its junction blocks end to
    # end, so the knot's eight blocks settle every pattern of every t
    Check(
        "alternating_cs",
        lambda ctx: all(c for c, _ in ctx.junction_verdicts.values()),
        # the torus knot [2,-2] has no closed form
        applies=lambda knot: knot.is_hyperbolic,
    ),
    Check("alternating_bounds", lambda ctx: all(b for _, b in ctx.junction_verdicts.values())),
    Check(
        "dihedral_orders",
        # proper subgroups of orders 2m + 1 and 2m - 1
        lambda ctx: [(v.proper, v.order_in_homology) for v in orbifold.standard_arcs(ctx.knot.m)]
        == [(True, 2 * ctx.knot.m + 1), (True, 2 * ctx.knot.m - 1)],
        # the slope 2m/(4m^2 - 1) of the standard arcs is that of [2m,-2m]
        applies=lambda knot: knot.sign == -1 and knot.m == knot.n >= 2,
    ),
    Check("matrix_scan", lambda ctx: ctx.scan_report.clean),
)

_PIECE_CHECKS = ("piece_prop", "three_piece", "C4", "T4")


def _verify_cell(cell) -> dict:
    m, n, sign, scan_syllables = cell
    knot = GenusOneKnot(m, n, sign)
    ctx = CheckContext(knot, scan_syllables)
    checks = []
    for check in CHECKS:
        if check.name == "matrix_scan" and not scan_syllables:
            continue
        if not check.applies(knot):
            checks.append({"name": check.name, "status": "unsupported", "elapsed_s": 0.0})
            continue
        t0 = time.perf_counter()
        status = "pass" if check.run(ctx) else "fail"
        checks.append(
            {"name": check.name, "status": status,
             "elapsed_s": round(time.perf_counter() - t0, 6)}
        )
    return {"m": m, "n": n, "sign": sign, "checks": checks}


def _cell_reports(cells, workers: int):
    """_verify_cell of each cell, in order, in a pool when workers > 1."""
    if workers == 1:
        yield from map(_verify_cell, cells)
        return
    # imported here: the process pool machinery costs ~2 MB of RSS
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_verify_cell, cells)


def _cmd_verify_all(args) -> int:
    if args.m_max < 1 or args.n_max < 1:
        raise ValueError("grid bounds must be at least 1")
    _check_scan_syllables(args.scan_syllables)
    if not (math.isfinite(args.max_seconds) and args.max_seconds >= 0):
        raise ValueError(
            f"--max-seconds must be a finite number of at least 0, got {args.max_seconds}"
        )
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    cells = [
        (m, n, sign, args.scan_syllables)
        for m in range(1, args.m_max + 1)
        for n in range(1, args.n_max + 1)
        for sign in (1, -1)
    ]
    deadline = time.monotonic() + args.max_seconds if args.max_seconds else None
    # a pool starts all its workers at once, so no more than can be busy
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    reports = []
    for report in _cell_reports(cells, workers):
        reports.append(report)
        # the budget can only cut cells that have not run
        if deadline and len(reports) < len(cells) and time.monotonic() > deadline:
            break
    missing = cells[len(reports):]
    truncated = bool(missing)

    n_fail = sum(
        1 for r in reports for c in r["checks"] if c["status"] == "fail"
    )
    payload = {
        "command": "verify-all",
        "grid": {"m_max": args.m_max, "n_max": args.n_max},
        "kernel": _kernel.IMPL,
        "reports": reports,
        "truncated": truncated,
        "missing_cells": [list(c[:3]) for c in missing],
        "failures": n_fail,
    }
    _emit(payload, args.json, lambda: [
        *(f"{str(GenusOneKnot(r['m'], r['n'], r['sign'])):10s} "
          + " ".join(f"{c['name']}={c['status']}" for c in r["checks"])
          for r in reports),
        f"{len(reports)} knots checked, {n_fail} failures"
        + (", TRUNCATED" if truncated else ""),
    ])
    if n_fail:
        return EXIT_FAIL
    if truncated:
        return EXIT_TRUNCATED
    return EXIT_PASS


def _add_knot_args(sub):
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--sign", choices=("+", "-"), required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It binds the _cmd_*
    handlers, which look up library functions only when they run.  No
    parser takes a prefix of an option for the option."""
    parser = argparse.ArgumentParser(
        prog="bridgeforge",
        description="verification battery for genus-one two-bridge knot groups",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --json, and two take --scan-syllables: each
    # declared once here
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    scan_flag = argparse.ArgumentParser(add_help=False)
    scan_flag.add_argument(
        "--scan-syllables", type=int, default=0,
        help=f"run the matrix scan up to this many syllables (1..{freeness.MAX_SYLLABLES})")

    def command(name, summary, fn, *parents):
        sub = subs.add_parser(name, help=summary, parents=[json_flag, *parents], allow_abbrev=False)
        sub.set_defaults(fn=fn)
        return sub

    sub = command("relator", "relator word and S-sequences", _cmd_relator)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)

    _add_knot_args(command("meridians", "long meridian pair words", _cmd_meridians))

    sub = command("pieces", "piece queries and C(4)/T(4) checks", _cmd_pieces)
    _add_knot_args(sub)
    sub.add_argument("--word", help="word in a/A/b/B syntax to analyze")

    sub = command("freeness", "alternating-word S-sequence checks", _cmd_freeness, scan_flag)
    _add_knot_args(sub)
    sub.add_argument("--t", type=int, default=2, help=f"max syllable pairs (1..{MAX_T})")

    sub = command("reps", "parabolic representation roots", _cmd_reps)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--tol", type=float, default=1e-9)

    sub = command("orbifold", "dihedral quotient subgroup orders", _cmd_orbifold)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--slope", help="arc slope u/v, -u/v allowed (default: both standard arcs)")

    sub = command("epi", "exact epimorphism test by Farey orbit descent", _cmd_epi)
    sub.add_argument("--source", required=True, help="source slope q/p, -q/p allowed")
    sub.add_argument("--target", required=True, help="target slope q/p, -q/p allowed")

    sub = command("verify-all", "full battery over an (m, n) grid", _cmd_verify_all, scan_flag)
    sub.add_argument("--m-max", type=int, required=True)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--max-seconds", type=float, default=0.0,
                     help="soft time budget; exceeding it truncates the grid")
    return parser


# argparse reads a word that starts with "-" as an option unless it is a
# plain number, so it would refuse "--source -2/5" for want of a value
_SLOPE_FLAGS = ("--source", "--target", "--slope")


def _join_negative_slopes(argv: list[str]) -> list[str]:
    """argv with each slope flag and a following negative value, such as
    --source -2/5, joined into one word, --source=-2/5."""
    out = []
    for arg in argv:
        if out and out[-1] in _SLOPE_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_slopes(sys.argv[1:] if argv is None else argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so the flush
        # at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
