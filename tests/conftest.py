"""A per-test time limit from the standard library, so a hang is a failure.

Every test runs under a real-time timer that raises TimeLimitExceeded
after LIMIT_S seconds, which fails the test and lets the suite go on.
It is a BaseException, like KeyboardInterrupt, so neither an
``except Exception`` in the code under test nor hypothesis (which would
replay and shrink the example, hanging again with no timer left) takes
it for an ordinary failure.  Code that never returns to the interpreter
(a loop inside one C call) cannot see that signal, so faulthandler
dumps every thread's traceback and ends the process at twice the limit.
Both are cancelled after each test.  The slowest test takes 6-7 s on a
shared 2-CPU machine, where Tier-1 takes 67-83 s; every run lists its
five slowest tests (--durations=5 in pyproject.toml).
"""

import contextlib
import faulthandler
import os
import signal

import pytest

LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    pass


def _raise_timeout(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {LIMIT_S} s")


@pytest.fixture(scope="session")
def real_stderr(pytestconfig):
    """A copy of the stderr pytest started with: during a test, fd 2 is
    pytest's capture file, which is lost when faulthandler ends the run."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
        fd = os.dup(2)
    with os.fdopen(fd, "w") as stream:
        yield stream


@pytest.fixture(autouse=True)
def time_limit(real_stderr):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    faulthandler.dump_traceback_later(2 * LIMIT_S, exit=True, file=real_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
