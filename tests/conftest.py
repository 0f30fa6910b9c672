"""A per-test time limit: a test that hangs ends the run, with a traceback of
every thread on stderr, instead of hanging it. The limit is far above the
slowest test (the gate-3 oracle run, under a minute)."""

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken before any test captures fd 2
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
