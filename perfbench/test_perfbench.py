"""Fast tests of the benchmark harness: oracles on known small cases, the
tail-percentile rule, the tracing wrappers, and a smoke run of every
workload at tiny size."""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import spans
import workloads


def _payload(argv):
    from bridgeforge import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------- oracles

@pytest.mark.parametrize("m,n,sign", [(1, 1, 1), (1, 1, -1), (2, 3, 1), (3, 2, -1)])
def test_relator_word_has_closed_form_cs(m, n, sign):
    p = 4 * m * n + sign
    word = oracles.relator_word(p, 2 * n)
    assert len(word) == 2 * p
    assert oracles.is_rotation(oracles.cyclic_runs(word), oracles.closed_form_cs(m, n, sign))


def test_figure_eight_relator_by_hand():
    # 2/5: e_i = (-1)^floor(2i/5) = (+, +, -, -), so uhat = b a B A and
    # u = a uhat b uhat^-1 = a b a B A b a b A B, with CS (3, 2, 3, 2)
    assert oracles.relator_word(5, 2) == oracles.parse_word("abaBAbabAB")
    assert oracles.cyclic_runs(oracles.relator_word(5, 2)) == [3, 2, 3, 2]
    assert oracles.closed_form_cs(1, 1, 1) == [3, 2, 3, 2]


def test_relator_oracle_rejects_a_wrong_word():
    par = {"m": 1, "n": 1, "sign": 1, "p": 5}
    assert oracles.check_relator(par, {"word": "abaBAbabAB", "length": 10}) == []
    assert oracles.check_relator(par, {"word": "abaBAbaBAB", "length": 10})
    assert oracles.check_relator(par, {"word": "abaBAbabABab", "length": 12})


def test_orbifold_oracle_by_hand():
    good = {
        "slope": "4/15", "homology_order": 15,
        "verdicts": [
            {"arc_slope": "1/3", "order_in_homology": 5, "dihedral_image_order": 10, "proper": True},
            {"arc_slope": "1/5", "order_in_homology": 3, "dihedral_image_order": 6, "proper": True},
        ],
    }
    assert oracles.check_orbifold({"m": 2}, good) == []
    bad = json.loads(json.dumps(good))
    bad["verdicts"][0]["order_in_homology"] = 15
    assert oracles.check_orbifold({"m": 2}, bad)


def test_reflection_formulas_agree():
    """The Fraction reflection of the oracles and the integer one that
    builds the epi sources are derived independently."""
    rng = random.Random(0)
    for _ in range(500):
        r = rng.choice(workloads.EPI_TARGETS)
        edge = rng.choice(workloads.epi_generators(r))
        x = workloads.reduce_pair(rng.randint(-40, 40), rng.randint(1, 40))
        y = workloads.reflect(edge, x)
        frac = tuple(None if e[1] == 0 else Fraction(*e) for e in edge)
        assert oracles.reflect_fraction(frac, Fraction(*x)) == (None if y[1] == 0 else Fraction(*y))
        assert workloads.reflect(edge, y) == x  # an involution


def test_epi_oracle_checks_each_step():
    # the reflection in the Farey edge (2/5, 1/2) maps infinity to the
    # midpoint 9/20
    par = {"source": (9, 20), "target": (2, 5)}
    step = {"edge": ["2/5", "1/2"], "from": "1/0", "to": "9/20"}
    out = {"verdict": "yes", "route": "rt in orbit of r", "source": "9/20", "witness": [step]}
    assert oracles.check_epi(par, out) == []
    broken = dict(out, witness=[dict(step, to="9/21")])
    assert oracles.check_epi(par, broken)
    assert oracles.check_epi(par, dict(out, verdict="unknown"))


def test_reps_oracle_separates_roots_from_near_misses():
    out = _payload(["reps", "--p", "9", "--q", "2", "--json"])
    par = {"p": 9, "q": 2}
    assert oracles.check_reps(par, out) == []
    z = complex(out["roots"][0]["omega"]) + 1e-4
    moved = dict(out, roots=[{"omega": str(z)}] + out["roots"][1:])
    assert oracles.check_reps(par, moved)


def test_scan_oracle_word_count():
    out = _payload(["freeness", "--m", "1", "--n", "1", "--sign", "+", "--t", "1",
                    "--scan-syllables", "3", "--json"])
    par = {"p": 5, "t": 1, "syllables": 3}
    assert out["scan"]["words_checked"] == 2 * (3 ** 3 - 1)
    assert oracles.check_scan(par, out) == []
    assert oracles.check_scan(dict(par, syllables=4), out)


# --------------------------------------------------------- harness rules

def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_value(list(range(1, 41))) == 30
    assert run.tail_value(list(range(11, 0, -1))) == 1
    with pytest.raises(ValueError):
        run.tail_value(list(range(10)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_item_lists_are_seeded_and_fixed_in_size(name):
    make = workloads.WORKLOADS[name]
    a, b, c = make(1), make(1), make(2)
    assert [i.argv for i in a] == [i.argv for i in b]
    assert len(a) == len(c) >= 40
    assert [i.argv for i in a] != [i.argv for i in c]


def test_epi_generators_lie_in_the_searched_slice():
    """Every source must be found by the first orbit search within three
    levels, which holds when the harness's reflections are among the
    program's default generators."""
    from bridgeforge import farey
    from bridgeforge.slope import Frac

    for q, p in workloads.EPI_TARGETS:
        program = {
            frozenset((e.num, e.den) for e in g.edge)
            for g in farey.reflection_generators(Frac(q, p), 6)
        }
        for edge in workloads.epi_generators((q, p)):
            assert frozenset(edge) in program, edge


def test_tracing_wraps_and_restores():
    from bridgeforge import presentation, smallcancel, words

    originals = (words.inverse, smallcancel.inverse, presentation.relator,
                 smallcancel.SymmetrizedSet.__init__)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert smallcancel.inverse is not originals[1]
        _payload(["pieces", "--m", "1", "--n", "1", "--sign", "+", "--json"])
    assert (words.inverse, smallcancel.inverse, presentation.relator,
            smallcancel.SymmetrizedSet.__init__) == originals
    assert tracer.calls["smallcancel.SymmetrizedSet"] == 3
    assert tracer.calls["cli.main"] == 1
    assert all(s is not None for s in tracer.spans)
    names = {s[0] for s in tracer.spans}
    assert {"smallcancel.check_T", "_kernel.max_piece_table", "words.inverse"} <= names


# ------------------------------------------------------------ smoke runs

def _small(name):
    """The 12 cheapest items (one of them a scan, on numeric_reps)."""
    items = workloads.WORKLOADS[name](3)
    if name == "numeric_reps":
        by_p = sorted(items, key=lambda i: i.params["p"])
        return [i for i in by_p if i.kind == "reps"][:11] + [i for i in by_p if i.kind == "scan"][:1]
    cost = {"battery_grid": "p", "epi_queries": "reflections"}[name]
    return sorted(items, key=lambda i: i.params[cost])[:12]


BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    record = run.run(name, 3, 0.0, trace, items=_small(name), probes=1)
    assert record["failed"] == 0 and record["problems"] == []
    assert record["attempted"] == 12 * (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: run.unit_of(m) for m in record["metrics"]} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert record["metrics"]["cli.self_s"] > 0
    else:
        assert all(v > 0 for v in record["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == sorted(workloads.WORKLOADS)
