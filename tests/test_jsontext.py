import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipwait.jsontext import dumps

# quote, backslash, control, non-ASCII, astral and line-separator characters
TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f/aZ\u00e9\u2028\U0001f600') | st.characters())
INTS = st.integers() | st.booleans()
FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300])
SCALARS = TEXT | INTS | FLOATS | st.none()
# lists of ints with bools among them reach the all-int join; the other lists and
# dicts nest everything, empty ones included
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(INTS) | st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=40,
)


@settings(deadline=None)  # example sizes differ by orders of magnitude: no per-example time limit
@given(VALUES)
def test_dumps_is_json_dumps_indent_2(x):
    assert dumps(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("x", [-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 0.1])
def test_dumps_writes_floats_as_json_dumps(x):
    assert dumps(x) == json.dumps(x, indent=2)
    assert dumps([x, {"x": x}]) == json.dumps([x, {"x": x}], indent=2)


@pytest.mark.parametrize("x", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}], (1, 2), {"a": {1}}, b"a"])
def test_dumps_refuses_non_str_keys_and_other_types(x):
    with pytest.raises(TypeError):
        dumps(x)
