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
