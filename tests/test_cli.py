import ast
import concurrent.futures
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeforge import cli, meridians
from bridgeforge.smallcancel import UNREPRESENTABLE, SymmetrizedSet, is_piece, min_pieces
from bridgeforge.words import inverse, word_str

from grids import knots, symmetrized_sets
from test_json_bytes import knot_flags


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    payload = json.loads(out)
    assert payload["schema"] == "bridge-forge/1"
    return code, payload


def test_relator_json_round_trip(capsys):
    code, payload = run_json(capsys, "relator", "--p", "5", "--q", "2")
    assert code == 0
    assert payload["word"] == "abaBAbabAB"
    assert payload["cyclic_s_sequence"] == [3, 2, 3, 2]
    assert json.loads(json.dumps(payload)) == payload


def test_meridians_command(capsys):
    code, payload = run_json(capsys, "meridians", "--m", "1", "--n", "1", "--sign", "+")
    assert code == 0
    assert payload["words"]["y_l"] == "bABaB"
    assert payload["verified"] is True


def test_pieces_word_query(capsys):
    code, payload = run_json(
        capsys, "pieces", "--m", "1", "--n", "1", "--sign", "-", "--word", "ba"
    )
    assert code == 0
    assert payload["is_piece"] is False
    assert payload["min_pieces"] == 2


def test_pieces_word_not_subword(capsys):
    code, payload = run_json(
        capsys, "pieces", "--m", "1", "--n", "1", "--sign", "+", "--word", "aa"
    )
    assert code == 0
    assert payload["min_pieces"] is None
    assert payload["is_piece"] is False


def test_pieces_word_matches_is_piece_and_min_pieces_on_grid(capsys):
    # the one-search answers against the library's two searches: subwords
    # at random offsets and lengths of both rows of every 6x6 knot, words
    # that no element holds (a cancelling pair, a letter run too long for
    # an alternating word, the whole relator plus a letter) and the
    # relator itself
    rng = random.Random(21)
    answers = set()
    for knot, R in symmetrized_sets(6):
        words = ["aA", "aa", word_str(R.word), word_str(R.word) + "a"]
        rows = (R.word * 2, inverse(R.word) * 2)
        for _ in range(8):
            d, s = rng.randrange(2), rng.randrange(R.n)
            words.append(word_str(rows[d][s:s + rng.randint(1, min(R.n, 12))]))
        for word in words:
            code, payload = run_json(capsys, "pieces", *knot_flags(knot), "--word", word)
            v = cli.parse_word(word)
            assert code == cli.EXIT_PASS
            assert payload["is_piece"] is is_piece(v, R), (knot, word)
            if R.find(v) is None:
                assert payload["min_pieces"] is None and "note" in payload, (knot, word)
            else:
                t = min_pieces(v, R)
                assert payload["min_pieces"] == (None if t is UNREPRESENTABLE else t)
                assert "note" not in payload
            answers.add((payload["is_piece"], payload["min_pieces"]))
    assert {(True, 1), (False, 2), (False, None)} <= answers


@pytest.mark.parametrize("argv,calls", [
    (["freeness", "--m", "3", "--n", "2", "--sign", "+", "--t", "2"], 0),
    (["freeness", "--m", "2", "--n", "1", "--sign", "-", "--t", "1", "--scan-syllables", "2"], 0),
    (["meridians", "--m", "3", "--n", "2", "--sign", "+"], 2),
    (["verify-all", "--m-max", "2", "--n-max", "1"], 2 * 4),
])
def test_d0_d1_are_built_only_where_read(capsys, monkeypatch, argv, calls):
    # d0 and d1 are two c_word calls: built once per meridians call and per
    # verify-all cell (its meridian_forms row), never on the freeness path
    built = []
    real = meridians.c_word
    monkeypatch.setattr(meridians, "c_word", lambda i, m: built.append(i) or real(i, m))
    code, _ = run_json(capsys, *argv)
    assert code == cli.EXIT_PASS and len(built) == calls


@pytest.mark.parametrize("word,piece", [("ba", False), ("aa", False), ("bA", True)])
def test_pieces_word_searches_the_set_once(capsys, monkeypatch, word, piece):
    searched = []
    real = SymmetrizedSet.find
    monkeypatch.setattr(SymmetrizedSet, "find",
                        lambda self, v: searched.append(v) or real(self, v))
    code, payload = run_json(capsys, "pieces", "--m", "1", "--n", "1", "--sign", "-", "--word", word)
    assert code == cli.EXIT_PASS and payload["is_piece"] is piece
    assert len(searched) == 1


def test_pieces_empty_word_is_a_usage_error(capsys):
    assert cli.main(["pieces", "--m", "1", "--n", "1", "--sign", "-", "--word", ""]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: the empty word is not a piece candidate\n"


def test_pieces_battery(capsys):
    code, payload = run_json(capsys, "pieces", "--m", "2", "--n", "1", "--sign", "-")
    assert code == 0
    assert all(payload["checks"].values())
    assert payload["elements"] == 4 * 7


def test_freeness_command(capsys):
    code, payload = run_json(
        capsys, "freeness", "--m", "1", "--n", "2", "--sign", "-", "--t", "2"
    )
    assert code == 0
    assert payload["patterns_checked"] == 20
    assert payload["all_ok"] is True


def test_reps_command(capsys):
    code, payload = run_json(capsys, "reps", "--p", "5", "--q", "2")
    assert code == 0
    assert len(payload["roots"]) == 2
    assert all(r["residual"] < 1e-9 for r in payload["roots"])
    assert payload["dropped_roots"] == []


def test_reps_keeps_every_root_at_204_239(capsys):
    # started on a circle, the iteration left one iterate stuck where the
    # float walk overflows, and 118 of the 119 roots were kept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "reps", "--p", "239", "--q", "204")
    assert code == 0 and len(payload["roots"]) == 119
    assert payload["dropped_roots"] == []


def _with_bad_iterates(monkeypatch):
    # two iterates the residual gate must drop, ahead of the real roots
    found = cli.sl2_oracle._all_roots
    monkeypatch.setattr(
        cli.sl2_oracle, "_all_roots",
        lambda u_hat, poly: [complex("nan"), complex("inf")] + found(u_hat, poly),
    )


def test_reps_lists_dropped_roots(capsys, monkeypatch):
    _with_bad_iterates(monkeypatch)
    with pytest.warns(UserWarning, match="dropping root"):
        code, payload = run_json(capsys, "reps", "--p", "7", "--q", "2")
    assert code == 0 and len(payload["roots"]) == 3
    assert payload["dropped_roots"] == [["(nan+0j)", None], ["(inf+0j)", None]]


def test_reps_text_lines_say_why_no_root_was_kept(capsys):
    # 2/5 has one conjugate pair, residual 1.1e-16: --tol 1e-300 drops it
    with pytest.warns(UserWarning, match="no representation root"), \
            pytest.warns(UserWarning, match="dropping root"):
        code, out = run_cli(capsys, "reps", "--p", "5", "--q", "2", "--tol", "1e-300")
    assert code == cli.EXIT_FAIL
    assert out.splitlines()[2:] == ["  dropped omega = -0.5+0.866025403784j   relator residual 1.110e-16",
                                    "  no root met --tol 1e-300"]


def test_text_lines_count_dropped_roots(capsys, monkeypatch):
    code, out = run_cli(capsys, "reps", "--p", "7", "--q", "2")
    assert code == cli.EXIT_PASS and "dropped" not in out and "no root met" not in out
    _with_bad_iterates(monkeypatch)
    with pytest.warns(UserWarning, match="dropping root"):
        code, out = run_cli(capsys, "reps", "--p", "7", "--q", "2")
    assert code == cli.EXIT_PASS and "no root met" not in out
    assert [line for line in out.splitlines() if "dropped" in line] == [
        "  dropped omega = nan+0j   relator residual nan",
        "  dropped omega = inf+0j   relator residual nan",
    ]
    with pytest.warns(UserWarning, match="dropping root"):
        code, out = run_cli(capsys, "freeness", "--m", "2", "--n", "1", "--sign", "+", "--t", "1",
                            "--scan-syllables", "3")
    assert code == cli.EXIT_PASS and "  float margins: 4 roots, 2 dropped, max relator residual " in out


def test_freeness_scan_payload_counts_roots(capsys, monkeypatch):
    argv = ("freeness", "--m", "2", "--n", "1", "--sign", "+", "--t", "1", "--scan-syllables", "3")
    code, payload = run_json(capsys, *argv)
    scan = payload["scan"]
    assert code == 0
    assert scan["words_checked"] == 2 * (3 ** 3 - 1) and scan["classes_checked"] == 24
    exact = scan["exact"]
    assert exact["words_nontrivial"] == scan["words_checked"]
    assert "retried" not in exact and scan["hits"] == []
    prime, modulus = exact["prime"], exact["modulus"]
    assert prime % 2 and modulus % prime == 0 and modulus <= 1 << 30 < modulus * prime
    assert 0 <= exact["alpha"] < modulus
    # the float roots stay as margins; the float walk's fields are gone
    assert len(scan["roots"]) == 4 and scan["max_residual"] < 1e-9
    assert scan["dropped_roots"] == []
    assert not {"roots_scanned", "min_distance"} & set(scan)
    code, out = run_cli(capsys, *argv)
    assert (f"matrix scan: 52 words in 24 classes at w = {exact['alpha']} mod {modulus}, "
            "52 proven nontrivial, hits: 0") in out
    assert "float margins: 4 roots" in out
    _with_bad_iterates(monkeypatch)
    with pytest.warns(UserWarning, match="dropping root"):
        code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["scan"]["dropped_roots"] == [["(nan+0j)", None], ["(inf+0j)", None]]


@pytest.mark.parametrize("m,n", [("2", "8"), ("8", "4")])
def test_freeness_scan_is_exact_where_floats_failed(capsys, m, n):
    # 16/63 and 8/127 exited 1 with 16 float hits each
    code, payload = run_json(
        capsys, "freeness", "--m", m, "--n", n, "--sign", "-", "--t", "1", "--scan-syllables", "8"
    )
    scan = payload["scan"]
    assert code == 0 and scan["hits"] == []
    assert scan["exact"]["words_nontrivial"] == scan["words_checked"] == 13_120
    assert scan["classes_checked"] == 1_386


@pytest.mark.parametrize("m,n,sign", [("1", "1", "+"), ("2", "1", "-")])
def test_freeness_scan_at_the_cap(capsys, m, n, sign):
    code, payload = run_json(
        capsys, "freeness", "--m", m, "--n", n, "--sign", sign, "--scan-syllables", "16"
    )
    scan = payload["scan"]
    assert code == 0 and scan["hits"] == []
    assert scan["words_checked"] == 86_093_440
    assert scan["classes_checked"] == 4_181_926


def test_verify_all_scan_at_12_syllables(capsys):
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "2", "--n-max", "2", "--scan-syllables", "12"
    )
    assert code == 0 and payload["failures"] == 0
    for report in payload["reports"]:
        by_name = {c["name"]: c["status"] for c in report["checks"]}
        assert by_name["matrix_scan"] == "pass"


def test_scan_hits_fail_both_commands(capsys, monkeypatch):
    # each knot's pair cut down to its prime, where short words of the
    # trefoil map to +-I by coincidence: a class at +-I under the pair is
    # a hit, so the freeness scan and the battery's matrix_scan both fail
    real = cli.sl2_oracle.modular_rep

    def at_its_prime(data):
        rep = real(data)
        return cli.sl2_oracle.ModularRep(rep.prime, rep.prime, rep.alpha % rep.prime)

    monkeypatch.setattr(cli.sl2_oracle, "modular_rep", at_its_prime)
    code, payload = run_json(
        capsys, "freeness", "--m", "1", "--n", "1", "--sign", "-", "--t", "1", "--scan-syllables", "5"
    )
    scan = payload["scan"]
    assert code == 1 and len(scan["hits"]) == 10
    assert scan["exact"]["modulus"] == 3 and scan["exact"]["words_nontrivial"] == 448
    assert all(isinstance(hit, str) for hit in scan["hits"])
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "1", "--n-max", "1", "--scan-syllables", "5"
    )
    statuses = {
        report["sign"]: {c["name"]: c["status"] for c in report["checks"]}["matrix_scan"]
        for report in payload["reports"]
    }
    assert code == 1 and statuses == {-1: "fail", 1: "pass"}


def test_orbifold_command(capsys):
    code, payload = run_json(capsys, "orbifold", "--m", "2")
    assert code == 0
    orders = sorted(v["dihedral_image_order"] for v in payload["verdicts"])
    assert orders == [6, 10]
    code, payload = run_json(capsys, "orbifold", "--m", "2", "--slope", "1/1")
    assert code == 1  # generator class is not proper
    assert payload["verdicts"][0]["proper"] is False


def test_epi_command(capsys):
    code, payload = run_json(capsys, "epi", "--source", "2/5", "--target", "2/5")
    assert code == 0
    assert payload["verdict"] == "yes"
    assert payload["algorithm"] == "gamma_r_descent"
    assert payload["reflections"] == 0 and payload["witness"] == []
    code, payload = run_json(capsys, "epi", "--source", "1/3", "--target", "2/5")
    assert code == 0
    assert payload["verdict"] == "no" and payload["route"] is None
    assert "arXiv:1508.03793" in payload["basis"]
    assert [s["route"] for s in payload["searches"]] == [
        "rt in orbit of r", "rt+1 in orbit of r", "rt in orbit of r'", "rt+1 in orbit of r'",
    ]
    assert payload["reflections"] == sum(s["reflections"] for s in payload["searches"])
    assert "cap_hits" not in payload and "note" not in payload
    code, out = run_cli(capsys, "epi", "--source", "1/7", "--target", "2/5")
    assert code == 0
    assert out.splitlines()[0].endswith(": no")
    assert "rt+1 in orbit of r': 8/7 is not in the orbit of {3/5, 1/0}" in out
    assert "basis:" in out


@pytest.mark.parametrize("target,message", [
    # K(3/5) is the figure-eight knot K(2/5); K(4/5) is the torus knot
    # K(1/5), of genus two.  Outside 0 < q < p the slope is first taken
    # mod p: K(7/5) = K(12/5) = K(2/5), K(-2/5) is the mirror image of
    # K(2/5), and K(-7/9) = K(2/9)
    ("3/5", "error: 3/5 is not 2n/(4mn +- 1), but K(3/5) is K(2/5) up to mirror image: use 2/5\n"),
    ("4/5", "error: 4/5 is not a genus-one slope\n"),
    ("7/5", "error: 7/5 is not 2n/(4mn +- 1), but K(7/5) is K(2/5) up to mirror image: use 2/5\n"),
    ("-2/5", "error: -2/5 is not 2n/(4mn +- 1), but K(-2/5) is K(2/5) up to mirror image: use 2/5\n"),
    ("12/5", "error: 12/5 is not 2n/(4mn +- 1), but K(12/5) is K(2/5) up to mirror image: use 2/5\n"),
    ("-7/9", "error: -7/9 is not 2n/(4mn +- 1), but K(-7/9) is K(2/9) up to mirror image: use 2/9\n"),
    ("1/0", "error: 1/0 is not a genus-one slope\n"),
    ("3/1", "error: 3/1 is not a genus-one slope\n"),
])
def test_epi_target_outside_the_family(capsys, target, message):
    assert cli.main(["epi", "--source", "1/3", "--target", target, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("knob", [["--depth", "2"], ["--neighbors", "1"]])
def test_epi_search_knobs_are_gone(knob):
    with pytest.raises(SystemExit) as err:
        cli.main(["epi", "--source", "1/3", "--target", "2/5", *knob])
    assert err.value.code == 2


def test_parser_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, payload = run_json(capsys, "relator", "--p", "5", "--q", "2")
    assert code == 0 and payload["command"] == "relator"
    code, payload = run_json(capsys, "epi", "--source", "3/5", "--target", "2/5")
    assert code == 0 and payload["command"] == "epi" and payload["verdict"] == "yes"
    with pytest.raises(SystemExit) as err:
        cli.main(["reps", "--p", "5"])
    assert err.value.code == 2


def test_cli_import_leaves_process_pool_unloaded():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bridgeforge.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every front-door call starts a fresh interpreter, so whatever the
    # import pulls in is paid on each call; dataclasses brings inspect,
    # ast, dis and tokenize, none of which the records need
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import bridgeforge.cli; "
         "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_module_runs_as_script():
    # python -m bridgeforge, from the source tree without an install
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    ok = subprocess.run(
        [sys.executable, "-m", "bridgeforge", "reps", "--p", "9", "--q", "2", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert ok.returncode == 0
    assert len(json.loads(ok.stdout)["roots"]) == 4
    bad = subprocess.run(
        [sys.executable, "-m", "bridgeforge", "reps", "--p", "4", "--q", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ")


def test_verify_all_small_grid(capsys):
    code, payload = run_json(capsys, "verify-all", "--m-max", "1", "--n-max", "1")
    assert code == 0
    assert payload["failures"] == 0
    assert payload["truncated"] is False
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))  # each battery check exactly once
        assert set(names) == {
            "relator_cs", "meridian_forms", "piece_prop", "three_piece",
            "C4", "T4", "alternating_cs", "alternating_bounds", "dihedral_orders",
        }
    minus = next(r for r in payload["reports"] if r["sign"] == -1)
    by_name = {c["name"]: c["status"] for c in minus["checks"]}
    assert by_name["alternating_cs"] == "unsupported"
    assert by_name["alternating_bounds"] == "pass"


def test_verify_all_rejects_empty_grid(capsys):
    code = cli.main(["verify-all", "--m-max", "0", "--n-max", "2"])
    assert code == cli.EXIT_USAGE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["relator", "--p", "5"])
    assert err.value.code == 2


def test_bad_value_exit_code(capsys):
    assert cli.main(["relator", "--p", "4", "--q", "1"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_relator_odd_numerator_names_the_mirror_slope(capsys, json_flag):
    # the recipe's word at 1/3, ababAB, is not a relator of the trefoil
    assert cli.main(["relator", "--p", "3", "--q", "1", *json_flag]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 1/3 has an odd numerator, which the relator recipe does not "
                            "take, but K(1/3) is K(2/3) up to mirror image: use 2/3\n")


@pytest.mark.parametrize("p,q", [(3, 5), (1, 1), (3, -1), (5, 7)])
def test_relator_odd_numerator_outside_the_range_is_refused(capsys, p, q):
    # outside 0 < q < p there is no mirror slope to name: 5/3 would name
    # -2/3 and 1/1 would name 0/1, both of which relator refuses too
    assert cli.main(["relator", "--p", str(p), "--q", str(q), "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need coprime 0 < q < p\n"


@pytest.mark.parametrize("command", ["relator", "reps"])
def test_non_coprime_slope_rejected(capsys, command):
    # 3/9 must not be silently reduced to 1/3
    assert cli.main([command, "--p", "9", "--q", "3", "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coprime" in captured.err


@pytest.mark.parametrize("argv,flag,text", [
    (["epi", "--source", "4/10", "--target", "2/5"], "--source", "4/10"),
    (["epi", "--source", "3/5", "--target", "6/21"], "--target", "6/21"),
    (["epi", "--source", "2/4", "--target", "2/5"], "--source", "2/4"),
    (["orbifold", "--m", "2", "--slope", "2/4"], "--slope", "2/4"),
    (["orbifold", "--m", "2", "--slope", "6/21"], "--slope", "6/21"),
    (["orbifold", "--m", "2", "--slope", "2/0"], "--slope", "2/0"),
])
def test_slope_not_in_lowest_terms_rejected(capsys, argv, flag, text):
    # Frac would reduce 4/10 to 2/5 and answer for that slope instead
    assert cli.main([*argv, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {text} is not in lowest terms\n"


@pytest.mark.parametrize("text", ["abc", "1/x", "0/0"])
@pytest.mark.parametrize("argv,flag", [
    (["orbifold", "--m", "2", "--slope"], "--slope"),
    (["epi", "--target", "2/5", "--source"], "--source"),
    (["epi", "--source", "3/5", "--target"], "--target"),
])
def test_slope_flag_parse_error_names_the_flag(capsys, argv, flag, text):
    # the error was int()'s, "invalid literal for int() with base 10:
    # 'abc'", or Frac's, "0/0 is not a slope"
    assert cli.main([*argv, text, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {text} is not a slope q/p\n"


@pytest.mark.parametrize("slope,arc,code", [("1/0", "1/0", 0), ("3", "3/1", 1), ("-1/3", "-1/3", 0)])
def test_orbifold_slope_in_lowest_terms_accepted(capsys, slope, arc, code):
    # infinity and bare integers are in lowest terms too
    got, payload = run_json(capsys, "orbifold", "--m", "2", f"--slope={slope}")
    assert got == code
    assert payload["verdicts"][0]["arc_slope"] == arc


@pytest.mark.parametrize("argv,code", [
    (["epi", "--source", "-2/5", "--target", "2/5"], cli.EXIT_PASS),
    (["epi", "--source", "3/5", "--target", "-2/5"], cli.EXIT_USAGE),  # no genus-one slope
    (["orbifold", "--m", "2", "--slope", "-1/3"], cli.EXIT_PASS),
    (["orbifold", "--m", "2", "--slope", "-3"], cli.EXIT_FAIL),
])
def test_slope_flags_take_a_negative_value_after_a_space(capsys, argv, code):
    # argparse alone reads -2/5 as an option and exits 2 with "expected
    # one argument"; the answer must be that of --flag=-q/p
    flag, value = argv[-2:]
    assert cli.main([*argv, "--json"]) == code
    spaced = capsys.readouterr()
    assert cli.main([*argv[:-2], f"{flag}={value}", "--json"]) == code
    assert capsys.readouterr() == spaced


def test_join_negative_slopes():
    assert cli._join_negative_slopes(["epi", "--source", "-2/5", "--target", "-1"]) == [
        "epi", "--source=-2/5", "--target=-1"]
    # a missing value is left for argparse to refuse
    assert cli._join_negative_slopes(["epi", "--source", "--json"]) == ["epi", "--source", "--json"]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_orbifold_rejects_nonpositive_m(capsys, m):
    assert cli.main(["orbifold", "--m", m, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m must be at least 1" in captured.err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_orbifold_m1_needs_slope(capsys, json_flag):
    # the standard arcs 1/(2m - 1), 1/(2m + 1) are the paper's only for m >= 2
    assert cli.main(["orbifold", "--m", "1", *json_flag]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the standard arcs need --m at least 2; give --slope\n"
    code, payload = run_json(capsys, "orbifold", "--m", "1", "--slope", "1/3")
    assert code == 0
    assert payload["slope"] == "2/3" and payload["verdicts"][0]["proper"] is True


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_reps_rejects_tol_outside_gate(capsys, tol):
    # nan and inf would switch the residual gate off; tol <= 0 drops every root
    assert cli.main(["reps", "--p", "5", "--q", "2", f"--tol={tol}", "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be a finite number above 0" in captured.err


@pytest.mark.parametrize("command", [
    ["freeness", "--m", "1", "--n", "1", "--sign", "+"],
    ["verify-all", "--m-max", "1", "--n-max", "1"],
])
def test_negative_scan_syllables_rejected(capsys, command):
    assert cli.main([*command, "--scan-syllables=-1", "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--scan-syllables must be at least 0" in captured.err


@pytest.mark.parametrize("command", [
    ["freeness", "--m", "1", "--n", "1", "--sign", "+"],
    ["verify-all", "--m-max", "1", "--n-max", "1"],
])
@pytest.mark.parametrize("extra", [1, 1000])
def test_scan_syllables_capped(capsys, monkeypatch, command, extra):
    # the search's tables grow as 3^(K/2), so a huge depth asked for
    # gigabytes before any word was tested; above the cap it is a usage
    # error, rejected before any check or scan starts
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((cli.freeness, "no_relation_scan"), (cli.freeness, "_pm_identity_classes"),
                         (cli.meridians, "long_meridian_words"), (cli, "_verify_cell")):
        monkeypatch.setattr(module, name, no_work)
    k = cli.freeness.MAX_SYLLABLES + extra
    assert cli.main([*command, f"--scan-syllables={k}", "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --scan-syllables must be at least 0 and at most {cli.freeness.MAX_SYLLABLES}, got {k}\n"
    )


def test_freeness_scan_builds_the_riley_polynomial_once(capsys, monkeypatch):
    # the exact pair and the float margins share one RileyData
    built = []
    real = cli.sl2_oracle.riley_polynomials

    def counted(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(cli.sl2_oracle, "riley_polynomials", counted)
    argv = ("freeness", "--m", "1", "--n", "2", "--sign", "-", "--t", "1", "--scan-syllables", "3")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["scan"]["hits"] == []
    assert len(built) == 1


@pytest.mark.parametrize("t", ["7", "12"])
def test_freeness_t_capped(capsys, t):
    # the sign patterns grow as 4^t: --t 12 would list 22.4 million of them
    assert cli.main(["freeness", "--m", "1", "--n", "1", "--sign", "+", "--t", t, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --t must be between 1 and {cli.MAX_T}, got {t}" in captured.err


@pytest.mark.parametrize("command", [
    ["freeness", "--m", "1", "--n", "1", "--sign", "+", "--scan-syllables", "2"],
    ["verify-all", "--m-max", "1", "--n-max", "1", "--scan-syllables", "2"],
])
def test_scan_without_roots_exits_fail(capsys, monkeypatch, command):
    # no prime gives the exact root finder a simple root
    monkeypatch.setattr(cli.sl2_oracle, "_lifted_root", lambda poly, prime, modulus: None)
    assert cli.main([*command, "--json"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no simple root of the Riley polynomial of 2/5 modulo 200 primes above 2" in captured.err


def test_scan_with_a_false_root_exits_fail(capsys, monkeypatch):
    # w = 0 sends b to I, so the relator maps to a, not I, mod 3^18
    monkeypatch.setattr(cli.sl2_oracle, "_lifted_root", lambda poly, prime, modulus: 0)
    command = ["verify-all", "--m-max", "1", "--n-max", "1", "--scan-syllables", "2"]
    assert cli.main([*command, "--json"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: relator of 2/5 is not I at w = 0 mod 387420489" in captured.err


@pytest.mark.parametrize("scan_flags", [[], ["--scan-syllables", "0"]], ids=["default", "zero"])
def test_verify_all_without_scan_syllables_runs_no_scan(capsys, monkeypatch, scan_flags):
    def no_scan(*args, **kwargs):
        raise AssertionError("no_relation_scan called")

    monkeypatch.setattr(cli.freeness, "no_relation_scan", no_scan)
    code, payload = run_json(capsys, "verify-all", "--m-max", "1", "--n-max", "1", *scan_flags)
    assert code == cli.EXIT_PASS
    assert all(c["name"] != "matrix_scan" for r in payload["reports"] for c in r["checks"])


@pytest.mark.parametrize("scan_flags", [["--scan"], ["--scan", "--scan-syllables", "2"]],
                         ids=["bare", "with-syllables"])
def test_verify_all_scan_flag_is_gone(capsys, scan_flags):
    # --scan-syllables K alone turns the scan on, and no option is read as
    # the abbreviation of a longer one
    with pytest.raises(SystemExit) as err:
        cli.main(["verify-all", "--m-max", "1", "--n-max", "1", *scan_flags])
    assert err.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --scan" in capsys.readouterr().err


@pytest.mark.parametrize("argv,prefix", [
    (["verify-all", "--m-max", "1", "--n-max", "1", "--scan", "2", "--json"], "--scan 2"),
    (["freeness", "--m", "1", "--n", "1", "--sign", "+", "--scan", "1", "--json"], "--scan 1"),
    (["verify-all", "--m-max", "1", "--n-max", "1", "--max-sec", "5", "--json"], "--max-sec 5"),
    (["pieces", "--m", "1", "--n", "1", "--sign", "+", "--wo", "ab"], "--wo ab"),
    (["relator", "--p", "5", "--q", "2", "--js"], "--js"),
])
def test_option_prefixes_are_usage_errors(capsys, argv, prefix):
    # argparse took an unambiguous prefix for the option: --scan 2 ran the
    # matrix scan as --scan-syllables 2 and exited 0
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {prefix}\n")


def test_verify_all_scan_never_finds_float_roots(capsys, monkeypatch):
    def no_float_roots(*args, **kwargs):
        raise AssertionError("numeric_reps called")

    monkeypatch.setattr(cli.sl2_oracle, "numeric_reps", no_float_roots)
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "2", "--n-max", "1", "--scan-syllables", "3"
    )
    assert code == 0
    statuses = [c["status"] for r in payload["reports"] for c in r["checks"] if c["name"] == "matrix_scan"]
    assert statuses == ["pass"] * 4


def _failed_validation(*args, **kwargs):
    raise AssertionError("word failed its validation")


@pytest.mark.parametrize("module,name,command", [
    ("presentation", "relator", ["pieces", "--m", "1", "--n", "1", "--sign", "+"]),
    ("meridians", "long_meridian_words", ["meridians", "--m", "1", "--n", "1", "--sign", "+"]),
    ("meridians", "long_meridian_words", ["freeness", "--m", "1", "--n", "2", "--sign", "-"]),
    ("meridians.MeridianWords", "junction_blocks", ["verify-all", "--m-max", "1", "--n-max", "1"]),
    ("meridians.MeridianWords", "junction_blocks", ["freeness", "--m", "2", "--n", "1", "--sign", "+"]),
])
def test_library_assertion_exits_fail(capsys, monkeypatch, module, name, command):
    owner = cli
    for attr in module.split("."):
        owner = getattr(owner, attr)
    # on a class the failure is a property, as junction_blocks is read
    monkeypatch.setattr(owner, name, property(_failed_validation) if isinstance(owner, type)
                        else _failed_validation)
    assert cli.main([*command, "--json"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word failed its validation\n"


class _ReflectionToNowhere:
    """A reflection that fixes every point, so a witness replay ends where
    the descent landed instead of at the target."""

    def __init__(self, *edge):
        pass

    def apply(self, x):
        return x


def test_epi_witness_replay_off_target_exits_fail(capsys, monkeypatch):
    monkeypatch.setattr(cli.farey, "reflection_in_edge", _ReflectionToNowhere)
    assert cli.main(["epi", "--source", "3/5", "--target", "2/5", "--json"]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness ends at ")
    assert captured.err.endswith(", not at the target 8/5\n")


def test_library_has_no_bare_asserts():
    # python -O strips assert statements, so validations raise explicitly
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


# Defined in src for the tests alone.  perfbench/spans.py wraps each
# function here by name, so they leave src with ROADMAP items 1 and 8.
# cyclic_seq_eq is the tests' rotation oracle for the closed forms, which
# src compares literally; cyclic_s_sequence is their reference for
# Relator.runs, which presentation.relator takes from s_sequence (no run
# of a relator crosses its period seam).  letter_power is reached only
# from relation_word.  alternating_cs_closed_form is a whole pattern's
# closed form, the tests' oracle for the blocks src checks one by one.
TEST_ONLY_API = {
    "rotations", "least_rotation", "relation_word", "alternating_relation_word",
    "reflection_generators", "cyclic_seq_eq", "cyclic_s_sequence", "letter_power",
    "alternating_cs_closed_form",
}


def test_library_defines_nothing_it_does_not_use():
    # every function, method and class is loaded by name or as an
    # attribute somewhere in src (dunder methods run implicitly), outside
    # the bodies of TEST_ONLY_API: a helper that only they reach is
    # test-only too
    defined, used = set(), set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
            if node.name in TEST_ONLY_API:
                return
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()))
    assert defined - used == TEST_ONLY_API


def test_tests_define_no_helper_they_do_not_use():
    # every top-level function and class in tests/ that is not a test, a
    # pytest hook or a fixture is loaded by name somewhere in tests/ or in
    # perfbench/test_perfbench.py, outside its own definition
    tests = Path(__file__).parent
    paths = [*sorted(tests.glob("*.py")), tests.parent / "perfbench" / "test_perfbench.py"]
    helpers, used = set(), set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if path.parent == tests and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                fixture = any(ast.unparse(getattr(d, "func", d)) == "pytest.fixture"
                              for d in node.decorator_list)
                if not (fixture or own.startswith(("test", "Test", "pytest_"))):
                    helpers.add(own)
            used |= {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own}
    assert helpers and helpers <= used, sorted(helpers - used)


@pytest.mark.parametrize("flag,message", [
    ("--max-seconds=-1", "--max-seconds must be a finite number of at least 0"),
    ("--max-seconds=nan", "--max-seconds must be a finite number of at least 0"),
    ("--max-seconds=inf", "--max-seconds must be a finite number of at least 0"),
    ("--jobs=0", "--jobs must be at least 1"),
    ("--jobs=-2", "--jobs must be at least 1"),
])
def test_verify_all_rejects_bad_budget_and_jobs(capsys, flag, message):
    # -1 truncated every cell, nan switched the budget off, 0 jobs ran serially
    assert cli.main(["verify-all", "--m-max", "1", "--n-max", "1", flag, "--json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_all_jobs(capsys):
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "1", "--n-max", "2", "--jobs", "2"
    )
    assert code == 0
    keys = [(r["m"], r["n"], r["sign"]) for r in payload["reports"]]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], -t[2]))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor by a fake that records its max_workers,
    starts no process and runs each cell in this one; 8 CPUs."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return sizes


@pytest.mark.parametrize("grid,cpus,workers", [
    ("1", 8, [2]),     # 2 cells
    ("3", 8, [8]),     # 18 cells, 8 CPUs
    ("3", None, []),   # an unknown CPU count runs serially
])
def test_verify_all_jobs_starts_no_more_workers_than_can_run(
    capsys, monkeypatch, pool_sizes, grid, cpus, workers
):
    # a pool forks all max_workers at its first submit: --jobs 5000 forked
    # 5,000 processes for a 2-cell grid
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, payload = run_json(
        capsys, "verify-all", "--m-max", grid, "--n-max", grid, "--jobs", "5000"
    )
    assert code == cli.EXIT_PASS
    assert pool_sizes == workers
    assert len(payload["reports"]) == 2 * int(grid) ** 2


class StepClock:
    """A clock for cli.time whose monotonic() gains 1 s per call;
    perf_counter() gains with it when shared is set, else stands still."""

    def __init__(self, shared):
        self.now = 0.0
        self.shared = shared

    def monotonic(self):
        self.now += 1.0
        return self.now

    def perf_counter(self):
        return self.monotonic() if self.shared else 0.0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_budget_never_truncates_a_finished_grid(capsys, monkeypatch, pool_sizes, jobs):
    # the deadline (1 + 1.5 s) passes after the last cell: the pool loop
    # reported truncated with no missing cell and exited 3
    monkeypatch.setattr(cli, "time", StepClock(shared=False))
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "1", "--n-max", "1",
        "--jobs", jobs, "--max-seconds", "1.5",
    )
    assert code == cli.EXIT_PASS
    assert pool_sizes == ([2] if jobs == "2" else [])
    assert payload["truncated"] is False
    assert payload["missing_cells"] == []
    assert len(payload["reports"]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_budget_cuts_the_same_cells_with_and_without_jobs(
    capsys, monkeypatch, pool_sizes, jobs
):
    # the deadline passes during the first cell, so both loops keep it
    # and name the second as missing
    monkeypatch.setattr(cli, "time", StepClock(shared=True))
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "1", "--n-max", "1",
        "--jobs", jobs, "--max-seconds", "1.5",
    )
    assert code == cli.EXIT_TRUNCATED
    assert pool_sizes == ([2] if jobs == "2" else [])
    assert payload["truncated"] is True
    assert [(r["m"], r["n"], r["sign"]) for r in payload["reports"]] == [(1, 1, 1)]
    assert payload["missing_cells"] == [[1, 1, -1]]


def test_sign_patterns_by_length_then_lexicographic():
    patterns = cli._sign_patterns(2)
    assert len(patterns) == 4 + 16
    assert patterns[:5] == [((1, 1),), ((1, -1),), ((-1, 1),), ((-1, -1),), ((1, 1), (1, 1))]
    assert patterns[4:] == sorted(patterns[4:], reverse=True)


def test_verify_all_with_scan(capsys):
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "1", "--n-max", "1",
        "--scan-syllables", "3",
    )
    assert code == 0
    for report in payload["reports"]:
        by_name = {c["name"]: c["status"] for c in report["checks"]}
        assert by_name["matrix_scan"] == "pass"


def test_verify_all_truncation(capsys):
    code, payload = run_json(
        capsys, "verify-all", "--m-max", "6", "--n-max", "6",
        "--max-seconds", "0.01",
    )
    assert code == cli.EXIT_TRUNCATED
    assert payload["truncated"] is True
    assert payload["missing_cells"]


@pytest.mark.parametrize("command,builds", [
    (["freeness", "--m", "1", "--n", "2", "--sign", "-", "--scan-syllables", "2"], 1),
    (["verify-all", "--m-max", "1", "--n-max", "1", "--scan-syllables", "2"], 2),
])
def test_scan_shares_the_meridian_words(capsys, monkeypatch, command, builds):
    # the matrix scan takes the long meridian words its caller already holds
    built = []
    real = cli.meridians.long_meridian_words

    def counted(knot):
        built.append(knot)
        return real(knot)

    for module in (cli.meridians, cli.freeness):
        monkeypatch.setattr(module, "long_meridian_words", counted)
    assert cli.main([*command, "--json"]) == cli.EXIT_PASS
    assert len(built) == builds


def _count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name, wherever a
    bridgeforge module holds that function."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("bridgeforge"):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


def _count_set_builds(monkeypatch):
    built = []
    real = cli.smallcancel.SymmetrizedSet.__init__

    def counted(self, u):
        built.append(u)
        real(self, u)

    monkeypatch.setattr(cli.smallcancel.SymmetrizedSet, "__init__", counted)
    return built


def test_pieces_builds_the_relator_once(capsys, monkeypatch):
    # the context's relator feeds every check; each piece check still
    # builds its own symmetrized set
    relators = _count_calls(monkeypatch, cli.presentation, "relator")
    sets = _count_set_builds(monkeypatch)
    code, payload = run_json(capsys, "pieces", "--m", "2", "--n", "1", "--sign", "-")
    assert code == cli.EXIT_PASS and all(payload["checks"].values())
    assert len(relators) == 1 and len(sets) == 3


def test_verify_cell_builds_the_relator_once(monkeypatch):
    relators = _count_calls(monkeypatch, cli.presentation, "relator")
    sets = _count_set_builds(monkeypatch)
    report = cli._verify_cell((2, 2, -1, 0))
    assert {c["status"] for c in report["checks"]} == {"pass"}
    assert len(report["checks"]) == 9
    assert len(relators) == 1 and len(sets) == 3


FRONT_DOORS = [
    ["relator", "--p", "9", "--q", "2"],
    ["meridians", "--m", "2", "--n", "1", "--sign", "-"],
    ["pieces", "--m", "2", "--n", "1", "--sign", "-"],
    ["pieces", "--m", "1", "--n", "1", "--sign", "-", "--word", "ba"],
    ["pieces", "--m", "1", "--n", "1", "--sign", "+", "--word", "aa"],
    ["freeness", "--m", "2", "--n", "1", "--sign", "-", "--t", "1"],
    ["reps", "--p", "9", "--q", "2"],
    ["orbifold", "--m", "2"],
    ["epi", "--source", "3/5", "--target", "2/5"],
    ["epi", "--source", "3/7", "--target", "2/5"],
    ["verify-all", "--m-max", "1", "--n-max", "1"],
]


@pytest.mark.parametrize("argv", FRONT_DOORS)
def test_text_lines_are_built_only_without_json(capsys, monkeypatch, argv):
    # built: calls of the lines callable.  formatted: text-only values
    # formatted, the knot's name, each root and each slope put in an
    # f-string (the payloads take str()), which catches lines built before
    # _emit and handed to it ready-made
    built, formatted = [], []
    real = cli._emit

    def spying(payload, as_json, human_lines):
        def lines():
            built.append(as_json)
            return human_lines()
        real(payload, as_json, lines)

    class Root(complex):
        def __format__(self, spec):
            formatted.append(spec)
            return complex.__format__(self, spec)

    real_reps, real_str = cli.sl2_oracle.numeric_reps, cli.GenusOneKnot.__str__

    def spied_reps(data, tol=1e-9):
        reps = real_reps(data, tol)
        return cli.sl2_oracle.NumericReps(
            [cli.sl2_oracle.NumericRep(Root(r.omega), r.residual) for r in reps], reps.dropped)

    monkeypatch.setattr(cli, "_emit", spying)
    monkeypatch.setattr(cli.sl2_oracle, "numeric_reps", spied_reps)
    monkeypatch.setattr(cli.GenusOneKnot, "__str__",
                        lambda knot: formatted.append(knot) or real_str(knot))
    monkeypatch.setattr(cli.Frac, "__format__",
                        lambda frac, spec: formatted.append(frac) or format(str(frac), spec),
                        raising=False)
    assert cli.main([*argv, "--json"]) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["schema"] == cli.SCHEMA
    assert built == [] and formatted == []
    assert cli.main(argv) == cli.EXIT_PASS
    assert capsys.readouterr().out.strip()
    assert built == [False]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    *FRONT_DOORS,
    ["freeness", "--m", "2", "--n", "1", "--sign", "-", "--scan-syllables", "3"],
    ["pieces", "--m", "2", "--n", "2", "--sign", "+", "--word", "abAB"],
])
def test_json_is_one_canonical_line_of_strict_json(capsys, argv):
    # the payload is one line, and re-encoding it compactly with sorted
    # keys gives it back; NaN and Infinity, which json.dumps writes for
    # non-finite floats, would make it no JSON at all
    assert cli.main([*argv, "--json"]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["schema"] == cli.SCHEMA


def test_verify_all_builds_the_junction_blocks_once(capsys, monkeypatch):
    # alternating_cs and alternating_bounds read one set of the eight
    # blocks per knot
    built = []
    real = meridians.MeridianWords.junction_blocks.func

    def counted(mw):
        built.append(mw.knot)
        return real(mw)

    prop = functools.cached_property(counted)
    prop.__set_name__(meridians.MeridianWords, "junction_blocks")
    monkeypatch.setattr(meridians.MeridianWords, "junction_blocks", prop)
    code, payload = run_json(capsys, "verify-all", "--m-max", "2", "--n-max", "2")
    assert code == cli.EXIT_PASS and len(payload["reports"]) == 8
    assert built == knots(2)


def test_verify_all_builds_each_closed_form_once(capsys, monkeypatch):
    # the junction verdicts build the two closed forms of a hyperbolic
    # knot once, and alternating_cs and alternating_bounds read them
    calls = _count_calls(monkeypatch, cli.freeness, "closed_form_block")
    code, payload = run_json(capsys, "verify-all", "--m-max", "2", "--n-max", "2")
    assert code == cli.EXIT_PASS and len(payload["reports"]) == 8
    assert sorted(calls, key=repr) == sorted((
        (knot, e) for knot in knots(2) if knot.is_hyperbolic for e in (1, -1)), key=repr)


@pytest.mark.parametrize("argv,splits,inversions", [
    (("freeness", "--m", "3", "--n", "3", "--sign", "-", "--t", "2"), 2, 2),
    (("meridians", "--m", "3", "--n", "3", "--sign", "-"), 8, 6),
    (("verify-all", "--m-max", "6", "--n-max", "6"), 216, 504),
])
def test_meridian_runs_are_split_once_per_knot(capsys, monkeypatch, argv, splits, inversions):
    # MeridianWords splits x_l and y_l into runs once; the table check and
    # the junction blocks read those runs, and x_l^-1, y_l^-1 are never
    # built.  On (3, 3, -) freeness splits x_l and y_l and inverts w_x and
    # w_y; meridians also splits its six payload words and inverts four
    # words in verify_meridian_forms
    mw = meridians.long_meridian_words(cli.GenusOneKnot(3, 3, -1))
    splits_seen = _count_calls(monkeypatch, cli.meridians, "s_sequence")
    inversions_seen = _count_calls(monkeypatch, cli.meridians, "inverse")
    code, _ = run_json(capsys, *argv)
    assert code == cli.EXIT_PASS
    assert (len(splits_seen), len(inversions_seen)) == (splits, inversions)
    if argv[0] != "verify-all":
        assert not {mw.x_l, mw.y_l} & {word for word, in inversions_seen}


@pytest.mark.parametrize("t", [2, 4])
def test_freeness_builds_each_closed_form_once(capsys, monkeypatch, t):
    # every sign pattern reads the one table of junction verdicts
    calls = _count_calls(monkeypatch, cli.freeness, "closed_form_block")
    code, payload = run_json(capsys, "freeness", "--m", "2", "--n", "3", "--sign", "-", "--t", str(t))
    assert code == cli.EXIT_PASS and payload["patterns_checked"] == sum(4 ** k for k in range(1, t + 1))
    knot = cli.GenusOneKnot(2, 3, -1)
    assert sorted(calls) == [(knot, -1), (knot, 1)]


def _longer_closed_form(monkeypatch):
    """A wrong closed form: one more 2m-block in every block into x_l^-1
    or y_l^-1."""
    real = cli.freeness.closed_form_block
    monkeypatch.setattr(cli.freeness, "closed_form_block",
                        lambda knot, e: real(knot, e) + (2 * knot.m,) * (e == -1))


def _stricter_bound(monkeypatch):
    """A wrong forbidden-term fact: no term above 3, which fails every
    block that holds a 4."""
    real = cli.freeness.forbidden_terms_ok
    monkeypatch.setattr(cli.freeness, "forbidden_terms_ok",
                        lambda knot, cs: real(knot, cs) and max(cs) <= 3)


def block_verdicts(knot):
    """(closed form, bounds) of each junction block of knot, judged block
    by block with the freeness rules as they stand."""
    blocks = meridians.long_meridian_words(knot).junction_blocks
    return [(knot.is_hyperbolic and block == cli.freeness.closed_form_block(knot, 1 if f > 0 else -1),
             cli.freeness.forbidden_terms_ok(knot, block)) for (_, f), block in blocks.items()]


def test_freeness_fails_every_pattern_a_wrong_closed_form_touches(capsys, monkeypatch):
    # each pattern with a factor x_l^-1 or y_l^-1 leads into a wrong
    # block, so only the two patterns of factors x_l and y_l pass
    _longer_closed_form(monkeypatch)
    code, payload = run_json(capsys, "freeness", "--m", "2", "--n", "2", "--sign", "+", "--t", "2")
    assert code == cli.EXIT_FAIL and payload["all_ok"] is False
    assert payload["patterns_checked"] == 20
    assert [r["pattern"] for r in payload["results"] if r["ok"]] == [[[1, 1]], [[1, 1], [1, 1]]]


@pytest.mark.parametrize("mutate,code", [(_longer_closed_form, cli.EXIT_PASS),
                                         (_stricter_bound, cli.EXIT_FAIL)], ids=["closed", "bound"])
def test_torus_knot_patterns_read_the_bounds_alone(capsys, monkeypatch, mutate, code):
    # (1, 1, -) has no closed form, so only a wrong bound fails its patterns
    mutate(monkeypatch)
    got, payload = run_json(capsys, "freeness", "--m", "1", "--n", "1", "--sign", "-", "--t", "2")
    assert got == code and payload["all_ok"] is (code == cli.EXIT_PASS)


@pytest.mark.parametrize("mutate,row,moves", [
    # a wrong closed form moves every hyperbolic knot; a wrong bound the
    # torus knot and the knots with m = 2, whose blocks hold 2m = 4
    (_longer_closed_form, 0, lambda knot: knot.is_hyperbolic),
    (_stricter_bound, 1, lambda knot: knot.m == 2 or not knot.is_hyperbolic),
], ids=["closed", "bound"])
def test_verify_all_fails_a_wrong_rule_where_it_moves_a_verdict(capsys, monkeypatch, mutate, row,
                                                                 moves):
    # the mutated row fails on exactly the knots where the wrong rule
    # changes a block's verdict, and the other row passes everywhere
    before = {knot: block_verdicts(knot) for knot in knots(2)}
    mutate(monkeypatch)
    code, payload = run_json(capsys, "verify-all", "--m-max", "2", "--n-max", "2")
    assert code == cli.EXIT_FAIL
    moved = []
    for knot, report in zip(knots(2), payload["reports"]):
        status = {c["name"]: c["status"] for c in report["checks"]}
        expected = ["pass" if knot.is_hyperbolic else "unsupported", "pass"]
        if any(b[row] != a[row] for b, a in zip(before[knot], block_verdicts(knot))):
            expected[row] = "fail"
            moved.append(knot)
        assert [status["alternating_cs"], status["alternating_bounds"]] == expected, knot
    assert payload["failures"] == len(moved)
    assert moved == list(filter(moves, knots(2)))


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_fail_without_a_traceback(unbuffered):
    # the reader of the pipe is gone before anything is written
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bridgeforge", "relator", "--p", "5", "--q", "2", "--json"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(w)
    assert done.returncode == cli.EXIT_FAIL
    assert done.stderr == ""


@pytest.mark.parametrize("argv", [
    ["relator", "--p", "9", "--q", "2"],
    ["meridians", "--m", "2", "--n", "1", "--sign", "-"],
    ["pieces", "--m", "2", "--n", "1", "--sign", "-"],
    ["freeness", "--m", "2", "--n", "1", "--sign", "-", "--t", "2"],
    ["freeness", "--m", "2", "--n", "1", "--sign", "-", "--t", "1", "--scan-syllables", "4"],
    ["reps", "--p", "9", "--q", "2"],
    ["epi", "--source", "3/5", "--target", "2/5"],
    ["epi", "--source", "1/7", "--target", "2/5"],
])
def test_payloads_are_deterministic(capsys, argv):
    # perfbench/run.py caches oracle verdicts by payload text, so a field
    # that changes from run to run (a timing) would grow that cache
    first = run_cli(capsys, *argv, "--json")
    assert first[0] == cli.EXIT_PASS
    assert run_cli(capsys, *argv, "--json") == first


# argv over all eight commands: each command's flags with values of the
# right kind, small or negative ints, nan and inf, slopes and words, and
# unknown flags and flags missing their value.  The sizes are bounded
# (m, n <= 4, p <= 61, grids of at most 2x2, at most 6 scan syllables but
# for the over-cap 17) and --jobs is 1, 0 or -1, so no process pool starts
def _ints(lo, hi, *extra):
    return st.sampled_from([str(x) for x in (*range(lo, hi + 1), *extra)])


_SLOPES = st.sampled_from(["7/5", "-2/5", "1/0", "0/0", "4/6", "x", "2/5", "3/5", "1/3", "2/9", "-7/9"])
_KNOT = {"--m": _ints(1, 4), "--n": _ints(1, 4), "--sign": st.sampled_from(["+", "-"])}
_SCAN = {"--scan-syllables": _ints(-1, 6, 17)}
_P_Q = {"--p": _ints(1, 61), "--q": _ints(-5, 61)}
_FLAGS = {
    "relator": _P_Q,
    "meridians": _KNOT,
    "pieces": {**_KNOT, "--word": st.text("aAbBx", max_size=8)},
    "freeness": {**_KNOT, "--t": _ints(0, 2, 7), **_SCAN},
    "reps": {**_P_Q, "--tol": st.sampled_from(["1e-9", "1e-3"])},
    "orbifold": {"--m": _ints(1, 4), "--slope": _SLOPES},
    "epi": {"--source": _SLOPES, "--target": _SLOPES},
    "verify-all": {"--m-max": _ints(1, 2), "--n-max": _ints(1, 2), "--jobs": _ints(-1, 1),
                   "--max-seconds": st.sampled_from(["0", "0.5"]), **_SCAN},
}
# small and negative ints, nan, inf, a slope and the empty word for any flag
_ANY_VALUE = st.sampled_from(["nan", "inf", "-inf", "-1", "-3", "0", "x", "7/5", ""])
_UNKNOWN = st.sampled_from(["--bogus", "--scan", "--depth", "-x"])


@st.composite
def _argvs(draw):
    # each flag is left out, or takes a value of another kind, one time in
    # ten; half the argvs ask for --json, one in ten has an unknown flag,
    # and one in ten ends in a flag without its value
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    pairs = [[flag, draw(_ANY_VALUE if draw(st.integers(0, 9)) == 0 else values)]
             for flag, values in flags.items() if draw(st.integers(0, 9))]
    roll = draw(st.integers(0, 9))
    if roll < 5:
        pairs.append(["--json"])
    elif roll == 9:
        pairs.append([draw(_UNKNOWN), "1"])
    argv = [command, *(word for pair in draw(st.permutations(pairs)) for word in pair)]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(sorted(flags))))
    return argv


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_argvs())
def test_fuzzed_argv_exits_0_to_3_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
