"""Span tracing of bridgeforge's layers from outside the package.

``traced(tracer)`` wraps the functions listed in LAYERS for the length of
a ``with`` block.  A function is replaced in every loaded bridgeforge
module that holds it, so a ``from .words import inverse`` binding is
traced as well as ``words.inverse``; on exit every binding is restored.
No file of the package is touched, and nothing is wrapped outside the
block, so untraced rounds run the program as it is.

Each call becomes a span (name, start, end, parent, item) kept in
memory.  Self time is a span's duration minus the time its traced
children cover; the layer metrics are sums of self times and counters.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count(key, fn):
    def observe(tracer, result):
        tracer.counters[key] += fn(result)
    return observe


def _numeric_reps(tracer, reps):
    tracer.counters["sl2_oracle.roots_kept"] += len(reps)
    for rep in reps:
        tracer.max_residual = max(tracer.max_residual, rep.residual)


# (module, attribute, observer).  Per-matrix and per-polynomial helpers
# (sl2_oracle.mat_mul, poly_mul, dist_pm_identity, ...) stay unwrapped:
# they run millions of times in the scan, so wrapping them would swamp
# the scan with tracing cost; their time counts in the caller's self time.
LAYERS = (
    ("cli", "main", None),
    ("presentation", "epsilon_sequence", None),
    ("presentation", "relator", None),
    ("presentation", "canonical_decomposition", None),
    ("presentation", "verify_cs_closed_form", None),
    ("meridians", "c_word", None),
    ("meridians", "d0_d1", None),
    ("meridians", "long_meridian_raw", None),
    ("meridians", "long_meridian_words", None),
    ("meridians", "verify_meridian_forms", None),
    *(("words", name, None) for name in (
        "parse_word", "word_str", "inverse", "concat", "letter_power",
        "free_reduce", "is_reduced", "is_cyclically_reduced", "alt_power",
        "apply_f", "s_sequence", "cyclic_s_sequence", "is_alternating",
        "is_cyclically_alternating", "alt_word", "rotations",
        "least_rotation", "cyclic_seq_eq",
    )),
    ("smallcancel", "SymmetrizedSet.__init__", None),
    ("smallcancel", "is_piece", None),
    ("smallcancel", "min_pieces", None),
    ("smallcancel", "check_C", None),
    ("smallcancel", "check_T", None),
    ("smallcancel", "verify_piece_prop", None),
    ("smallcancel", "verify_three_piece_property", None),
    ("_kernel", "max_piece_table", None),
    ("_kernel", "reach_table", None),
    ("_kernel", "min_pieces_span", None),
    ("freeness", "relation_word", None),
    ("freeness", "alternating_relation_word", None),
    ("freeness", "alternating_cs_closed_form", None),
    ("freeness", "verify_alternating_cs", None),
    ("freeness", "no_relation_scan",
     _count("freeness.scan_words", lambda r: r.words_checked * len(r.roots))),
    ("sl2_oracle", "riley_polynomials", None),
    ("sl2_oracle", "_all_roots", _count("sl2_oracle.roots_found", len)),
    ("sl2_oracle", "numeric_reps", _numeric_reps),
    ("orbifold", "subgroup_verdict", None),
    ("farey", "reflection_generators", None),
    ("farey", "orbit_contains", _count("farey.orbit_nodes", lambda r: r.visited)),
    ("farey", "epimorphism_exists",
     _count("farey.witness_reflections", lambda r: len(r.witness))),
)


class Tracer:
    """In-memory spans plus per-name self time, call counts and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_residual = 0.0
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def wrap(self, name, fn, observe):
        spans, stack, child_s = self.spans, self._stack, self._child_s
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child_s.pop()
                spans[index] = (name, start, end, parent, self.item)
                self.self_s[name] += end - start - covered
                self.calls[name] += 1
                if child_s:
                    child_s[-1] += end - start
            if observe is not None:
                observe(self, result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Wrap every LAYERS function for the block; restore all on exit."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "bridgeforge" or key.startswith("bridgeforge."))]
    undo = []
    try:
        for mod_name, attr, observe in LAYERS:
            owner = importlib.import_module(f"bridgeforge.{mod_name}")
            span = f"{mod_name}.{attr.replace('.__init__', '')}"
            if "." in attr:  # a class's __init__
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(span, orig, observe))
                continue
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(span, orig, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)


def _sum_self(tracer, prefix, exclude=()):
    return sum(v for k, v in tracer.self_s.items() if k.startswith(prefix) and k not in exclude)


def layer_metrics(tracer: Tracer, rounds: int, knots: int) -> dict[str, float]:
    """Layer figures per round: self times in s and counts, plus the
    per-knot and per-query ratios and the largest kept root residual."""
    t, c, n = tracer.self_s, tracer.counters, tracer.calls
    totals = {
        "cli.self_s": t["cli.main"],
        "presentation.relator_s": t["presentation.relator"],
        "meridians.self_s": _sum_self(tracer, "meridians."),
        "words.self_s": _sum_self(tracer, "words."),
        "freeness.alternating_cs_s": _sum_self(tracer, "freeness.", ("freeness.no_relation_scan",)),
        "smallcancel.symmetrized_set_s": t["smallcancel.SymmetrizedSet"],
        "smallcancel.check_T_s": t["smallcancel.check_T"],
        "smallcancel.check_C_s": t["smallcancel.check_C"],
        "smallcancel.piece_prop_s": t["smallcancel.verify_piece_prop"],
        "smallcancel.three_piece_s": t["smallcancel.verify_three_piece_property"],
        "kernel.max_piece_table_s": t["_kernel.max_piece_table"],
        "kernel.reach_table_s": t["_kernel.reach_table"],
        "kernel.min_pieces_span_s": t["_kernel.min_pieces_span"],
        "kernel.min_pieces_span_calls": n["_kernel.min_pieces_span"],
        "sl2_oracle.riley_s": t["sl2_oracle.riley_polynomials"],
        "sl2_oracle.roots_s": t["sl2_oracle._all_roots"],
        "sl2_oracle.roots_kept": c["sl2_oracle.roots_kept"],
        "sl2_oracle.roots_dropped": c["sl2_oracle.roots_found"] - c["sl2_oracle.roots_kept"],
        "freeness.scan_s": t["freeness.no_relation_scan"],
        "freeness.scan_words": c["freeness.scan_words"],
        "farey.epi_s": _sum_self(tracer, "farey."),
        "farey.orbit_searches": n["farey.orbit_contains"],
        "farey.orbit_nodes": c["farey.orbit_nodes"],
        "farey.witness_reflections": c["farey.witness_reflections"],
    }
    out = {k: v / rounds for k, v in totals.items()}
    epi_calls = n["farey.epimorphism_exists"]
    out["presentation.relators_per_knot"] = n["presentation.relator"] / (knots * rounds)
    out["smallcancel.sets_per_knot"] = n["smallcancel.SymmetrizedSet"] / (knots * rounds)
    out["farey.nodes_per_query"] = c["farey.orbit_nodes"] / epi_calls if epi_calls else 0.0
    out["sl2_oracle.max_residual"] = tracer.max_residual
    return out
