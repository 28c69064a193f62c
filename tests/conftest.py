import os
import sys

import pytest


@pytest.fixture
def int_digits():
    """sys.set_int_max_str_digits for one test; the old limit comes back afterwards."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def _drain(texts):
    """(strings yielded, message of the ValueError that stopped them or None)."""
    out = []
    try:
        for text in texts:
            out.append(text)
    except ValueError as exc:
        return out, str(exc)
    return out, None


@pytest.fixture
def drain():
    return _drain


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, running or ended but not reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a running child" if pid == 0 else f"child {pid}, unreaped with wait status {status}"
    pytest.fail(f"the test left {left}")
