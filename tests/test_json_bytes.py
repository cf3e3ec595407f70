"""The --json bytes of the battery front doors on the 6x6 grid, pinned by
one sha256 taken before their loops were rewritten around builtins.

The commands are those of perfbench's battery_grid: relator, meridians,
pieces and freeness --t 2 on every knot with m, n <= 6, and orbifold on
the sign - knots with m = n >= 2.  DIGEST was computed on the tree of
commit 8841f51 with

    PYTHONPATH=<checkout of 8841f51>/src python tests/test_json_bytes.py

reps is left out: its payload holds float roots, and cmath rounds them
differently from platform to platform.
"""

import contextlib
import hashlib
import io

from bridgeforge import cli

DIGEST = "8e0b5d0820ea37fb5bfbf65eeb8e1789c0b2b9c057950002f6af15454057b2db"


def battery_argvs(size=6):
    for m in range(1, size + 1):
        for n in range(1, size + 1):
            for sign in (1, -1):
                knot = ["--m", str(m), "--n", str(n), "--sign", "+" if sign > 0 else "-"]
                yield ["relator", "--p", str(4 * m * n + sign), "--q", str(2 * n)]
                yield ["meridians", *knot]
                yield ["pieces", *knot]
                yield ["freeness", *knot, "--t", "2"]
                if sign < 0 and m == n >= 2:
                    yield ["orbifold", "--m", str(m)]


def json_digest() -> str:
    """sha256 over each call's argv, exit code and --json stdout, in order."""
    digest = hashlib.sha256()
    for argv in battery_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--json"])
        digest.update(f"{' '.join(argv)} -> {code}\n".encode())
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_battery_json_bytes_are_unchanged():
    assert json_digest() == DIGEST


if __name__ == "__main__":
    print(json_digest())
