"""JSON text for nested values of any depth.

``dumps(value)`` writes the text ``json.dumps(value, indent=2)`` writes for
dicts, lists, strings, numbers, booleans and None.  It walks the value with
an explicit stack instead of recursing, so a document nested deeper than the
interpreter's recursion limit, such as the concept forest of a long
sub-concept chain, is written too.
"""

from __future__ import annotations

import json


def dumps(value) -> str:
    """``json.dumps(value, indent=2)``, without recursion."""
    parts: list[str] = []
    # Either text to write as it is, or a (value, nesting level) pair.
    stack: list[str | tuple] = [(value, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        value, level = item
        if isinstance(value, dict):
            brackets = "{}"
            entries = [(json.dumps(key) + ": ", val) for key, val in value.items()]
        elif isinstance(value, list):
            brackets = "[]"
            entries = [("", val) for val in value]
        else:
            parts.append(json.dumps(value))
            continue
        if not entries:
            parts.append(brackets)
            continue
        parts.append(brackets[0])
        indent = "\n" + "  " * (level + 1)
        stack.append("\n" + "  " * level + brackets[1])
        for index in reversed(range(len(entries))):
            prefix, val = entries[index]
            stack.append((val, level + 1))
            stack.append(("," if index else "") + indent + prefix)
    return "".join(parts)
