"""The --json bytes of the battery front doors on the 6x6 grid, pinned by
one sha256 taken before their loops were rewritten around builtins.

The commands are those of perfbench's battery_grid: relator, meridians,
pieces and freeness --t 2 on every knot with m, n <= 6, and orbifold on
the sign - knots with m = n >= 2.  DIGEST was computed on the tree of
commit 8841f51 with

    PYTHONPATH=<checkout of 8841f51>/src python tests/test_json_bytes.py

reps is left out: its payload holds float roots, and cmath rounds them
differently from platform to platform.

WORD_DIGEST pins the word path of pieces the same way: pieces --word on
every 6x6 knot, with each call's exit code and stderr as well as its
--json stdout.  The words are seeded subwords of u and of u^-1, words
that no element holds (aa, aA, abab, the relator plus one letter, the
relator twice), the relator itself, the empty word and a bad letter.  It
was computed on the tree of commit 06ba6fc, before the symmetrized set
kept one piece row, with

    PYTHONPATH=<checkout of 06ba6fc>/src python tests/test_json_bytes.py --word

FREENESS_DIGEST pins freeness at the other lengths t the same way as
DIGEST: freeness --t 1, 3 and 4 on every 4x4 knot and --t 6 on [6,-4],
with each call's exit code and --json stdout.  --scan-syllables is left
out, for the float roots of its margins.  It was computed on the tree of
commit b1fdc67, before each knot's junction blocks were judged once for
all its sign patterns, with

    PYTHONPATH=<checkout of b1fdc67>/src python tests/test_json_bytes.py --freeness

The front doors print each --json payload as one line of sorted-key
JSON, and the tests assert that each non-empty stdout equals its own
canonical re-encoding, json.dumps(json.loads(out), sort_keys=True) +
"\n".  The digests hash it re-indented, json.dumps(json.loads(out),
indent=2) + "\n", the layout the front doors printed when the three
digests were taken, so they pin every key and value but not the
layout; an empty stdout, such as that of a bad letter in pieces --word,
is hashed as it is.  The commands above skip the one-line assertion,
so they print the same digest on a checkout that indents its payloads
and on one that prints one line: run them on any two checkouts to
compare their payloads.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from bridgeforge import cli
from bridgeforge.slope import GenusOneKnot
from bridgeforge.words import inverse, word_str

from grids import knots, relator

DIGEST = "8e0b5d0820ea37fb5bfbf65eeb8e1789c0b2b9c057950002f6af15454057b2db"
WORD_DIGEST = "194408a1f9ea168c57a712b4bcb3525835cf6546a94b83456dbd285c6633038d"
FREENESS_DIGEST = "906e15fbe6300c1c192be7f797c53f422099023b77ac9a7e817c5a3012c8587d"


def knot_flags(knot):
    m, n, sign = knot
    return ["--m", str(m), "--n", str(n), "--sign", "+" if sign > 0 else "-"]


def battery_argvs(size=6):
    for knot in knots(size):
        flags = knot_flags(knot)
        yield ["relator", "--p", str(knot.p), "--q", str(knot.q)]
        yield ["meridians", *flags]
        yield ["pieces", *flags]
        yield ["freeness", *flags, "--t", "2"]
        if knot.sign < 0 and knot.m == knot.n >= 2:
            yield ["orbifold", "--m", str(knot.m)]


def freeness_argvs(size=4):
    for t in (1, 3, 4):
        for knot in knots(size):
            yield ["freeness", *knot_flags(knot), "--t", str(t)]
    yield ["freeness", *knot_flags(GenusOneKnot(3, 2, -1)), "--t", "6"]


def pinned_bytes(out: str, one_line=True) -> bytes:
    """The bytes a digest takes for one --json stdout: an empty one as it
    is, any other re-indented by two.  With one_line, first assert that
    out is one canonical line of sorted-key JSON."""
    if not out:
        return b""
    payload = json.loads(out)
    if one_line:
        assert out == json.dumps(payload, sort_keys=True) + "\n", out
    return (json.dumps(payload, indent=2) + "\n").encode()


def json_digest(argvs=None, one_line=True) -> str:
    """sha256 over each call's argv, exit code and --json stdout (as
    pinned_bytes gives it), in order, for the argvs given or else
    battery_argvs()."""
    digest = hashlib.sha256()
    for argv in argvs or battery_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--json"])
        digest.update(f"{' '.join(argv)} -> {code}\n".encode())
        digest.update(pinned_bytes(out.getvalue(), one_line))
    return digest.hexdigest()


def word_argvs(size=6):
    rng = random.Random(30)
    for knot in knots(size):
        u = relator(knot.fraction).u
        words = ["aa", "aA", "abab", word_str(u), word_str(u) + "a", word_str(u) * 2, "", "abx"]
        for row in (u * 2, inverse(u) * 2):
            for _ in range(6):
                s = rng.randrange(len(u))
                words.append(word_str(row[s:s + rng.randint(1, len(u))]))
        for word in words:
            yield ["pieces", *knot_flags(knot), "--word", word]


def word_digest(one_line=True) -> str:
    """sha256 over each pieces --word call's argv, exit code, --json
    stdout (as pinned_bytes gives it) and stderr, in order."""
    digest = hashlib.sha256()
    for argv in word_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--json"])
        digest.update(f"{' '.join(argv)} -> {code}\n".encode())
        digest.update(pinned_bytes(out.getvalue(), one_line))
        digest.update(err.getvalue().encode())
    return digest.hexdigest()


def test_battery_json_bytes_are_unchanged():
    assert json_digest() == DIGEST


def test_pieces_word_json_bytes_are_unchanged():
    assert word_digest() == WORD_DIGEST


def test_freeness_json_bytes_are_unchanged():
    assert json_digest(freeness_argvs()) == FREENESS_DIGEST


if __name__ == "__main__":
    # one_line=False: the tool also reads a checkout that indents
    flags = sys.argv[1:]
    print(word_digest(False) if flags == ["--word"] else
          json_digest(freeness_argvs(), False) if flags == ["--freeness"] else
          json_digest(one_line=False))
