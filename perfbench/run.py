#!/usr/bin/env python3
"""End-to-end benchmark of bridgeforge's command-line front doors.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload battery_grid --seed 1 --seconds 30 --trace 0

Each item is one real call of ``bridgeforge.cli.main(argv)`` with
``--json``, run in this process with stdout captured; its payload is
parsed and checked by an oracle in ``oracles.py``.  The load is a closed
loop: one caller, one call at a time.  The item list of a workload is
built from the seed before timing starts, then run in whole rounds until
``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics: setup_s (median start-up of fresh interpreters up
to the first call), wall_s (one pass over the items, as the sum of each
item's median time over the rounds), item_p50_ms and item_tail_ms (over
those per-item medians) and peak_rss_mb.  With ``--trace 1`` untraced rounds alternate with rounds
in which every layer is wrapped (see ``spans.py``), and the result
holds the per-layer metrics and the tracing overhead.
A fuller record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import oracles
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps this many items above it

# What a fresh interpreter does before the first timed call.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bridgeforge.cli, mpmath; "
    "print(bridgeforge.__file__, flush=True)"
)


def tail_value(values):
    """The highest percentile with at least TAIL_BEYOND values above it,
    i.e. the (n - TAIL_BEYOND)-th smallest value."""
    if len(values) <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} values")
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def _in_src(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def probe_setup(count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    bridgeforge and could make the first call, for `count` interpreters
    after one unmeasured warm-up (which writes the bytecode caches)."""
    times = []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, SRC],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        if proc.returncode != 0 or not _in_src(line.strip()):
            raise RuntimeError(f"setup probe failed: {err.strip() or line.strip()}")
        if i:
            times.append(elapsed)
    return times


def load_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bridgeforge
    from bridgeforge import cli

    if not _in_src(bridgeforge.__file__):
        raise RuntimeError(f"bridgeforge imported from {bridgeforge.__file__}, not {SRC}")
    return cli


def run_round(items, cli, tracer=None):
    """One pass over the item list: (seconds per item, (exit, stdout) per item)."""
    gc.collect()  # start every round from the same collector state
    times, results = [], []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(item.argv))
        except Exception as exc:  # a crash is a failed item, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        results.append((rc, buf.getvalue()))
    return times, results


def item_medians(rounds):
    """Each item's median time over the rounds (rounds: per-item times)."""
    return [statistics.median(col) for col in zip(*rounds)]


def check_round(items, results, verdicts: dict) -> tuple[list[str], list[str]]:
    """(items that failed to run, problems in the payloads of the rest).

    `verdicts` maps (item index, payload) to the oracle's findings, so a
    payload identical to one already checked is not checked again."""
    failures, problems = [], []
    for index, (item, (rc, text)) in enumerate(zip(items, results)):
        if rc != 0:
            failures.append(f"{' '.join(item.argv)}: exit {rc}")
            continue
        key = (index, text)
        if key not in verdicts:
            try:
                verdicts[key] = oracles.ORACLES[item.kind](item.params, json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[key] = [f"unreadable payload: {type(exc).__name__}: {exc}"]
        problems += [f"{' '.join(item.argv)}: {e}" for e in verdicts[key]]
    return failures, problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        items=None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload, or the given items of it, and return the record
    that main() prints and writes."""
    setup = probe_setup(probes) if not trace else []
    cli = load_cli()
    if items is None:
        items = workloads.WORKLOADS[workload](seed)
    knots = len({item.knot for item in items})

    untraced, traced_rounds = [], []
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    verdicts: dict = {}
    tracer = spans.Tracer() if trace else None

    def one_round(with_tracer):
        nonlocal attempted
        times, results = run_round(items, cli, with_tracer)
        f, p = check_round(items, results, verdicts)
        attempted += len(items)
        failures.extend(f)
        problems.extend(p)
        return times

    # Traced rounds alternate with untraced ones, so a drift in the
    # machine's speed falls on both alike and the overhead stays visible.
    start = time.perf_counter()
    while not untraced or time.perf_counter() < start + seconds:
        untraced.append(one_round(None))
        if trace:
            with spans.traced(tracer):
                traced_rounds.append(one_round(tracer))

    per_item = item_medians(untraced)
    if trace:
        metrics = spans.layer_metrics(tracer, len(traced_rounds), knots)
        metrics["trace_overhead_s"] = sum(item_medians(traced_rounds)) - sum(per_item)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_item),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": tail_value(per_item) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "items": len(items),
        "knots": knots,
        "rounds": len(untraced),
        "traced_rounds": len(traced_rounds),
        "round_walls_s": [sum(r) for r in untraced],
        "traced_round_walls_s": [sum(r) for r in traced_rounds],
        "setup_probes_s": setup,
        "kernel": cli._kernel.IMPL,
        "python": platform.python_version(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "problems": problems[:50],
        "metrics": metrics,
        "spans": tracer.spans if trace else None,
    }


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("_per_knot"):
        return "count/knot"
    if name.endswith("_per_query"):
        return "count/query"
    if name.endswith("max_residual"):
        return "1"
    return "count"


def write_record(record: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans_list = record.pop("spans")
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans_list is not None:
        with gzip.open(os.path.join(OUT, f"trace-{tag}.jsonl.gz"), "wt") as fh:
            for span in spans_list:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in record["problems"]:
        print(f"wrong: {line}", file=sys.stderr)
    write_record(record)
    correct = not record["problems"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
