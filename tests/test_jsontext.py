"""``cpl.jsontext.dumps`` writes ``json.dumps(value, indent=2)`` without
recursing."""

import json

from hypothesis import given, strategies as st

from cpl.jsontext import dumps

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@given(JSON_VALUES)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_dumps_writes_nesting_past_the_recursion_limit():
    depth = 5000
    value: list = []
    for _ in range(depth):
        value = [value]
    want = "\n".join(["  " * i + "[" for i in range(depth)]
                     + ["  " * depth + "[]"]
                     + ["  " * i + "]" for i in reversed(range(depth))])
    assert dumps(value) == want
