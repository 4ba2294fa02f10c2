"""Tier-1 watchdog for tests/ and perfbench/tests.

A test that runs longer than TEST_TIME_LIMIT_S ends the whole run: faulthandler
prints every thread's traceback to the terminal's stderr and exits, so a loop
that never ends fails the suite instead of hanging it. The slowest test takes
about 2 s, so the limit only trips on a hang.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300

_stderr_fd = None


def pytest_configure(config):
    # output capture redirects fd 2 during a test, so keep a copy of the real stderr for the traceback
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _stderr_fd is not None:
        os.close(_stderr_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
