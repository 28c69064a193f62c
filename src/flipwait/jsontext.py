"""JSON text with the bytes of json.dumps(x, indent=2), without the json package.

With `indent` set, CPython's json module formats in Python, one generator
step per value and one escape pass per string.  `dumps` formats the
payloads this package prints one value at a time: strings and keys through
the C escape function json.dumps itself calls, taken from `_json` as
`json.encoder` takes it, a list of plain ints from the list's repr in one
replace.  Importing the json package would cost more than this module does.
"""

from __future__ import annotations

from _json import encode_basestring_ascii

SCHEMA = 1  # the "schema" of every payload the CLI prints and of the `scan --out` report

# json.dumps's spellings of the constants and of the floats that are not numbers
CONSTANTS = {None: "null", True: "true", False: "false"}
_INFINITE = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def dumps(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2) for dicts with str keys, lists, str, int, bool, None and float.

    `indent` is the newline and indentation of the level holding `x`.
    Anything else, a dict key that is not a str included, raises TypeError.
    """
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return CONSTANTS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return "NaN" if x != x else _INFINITE.get(x) or float.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + dumps(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        # type(), not isinstance(): json writes a bool as true, str() as True
        if set(map(type, x)) == {int}:
            # the list's repr separates its int reprs by ", "
            return "[" + inner + repr(x)[1:-1].replace(", ", "," + inner) + indent + "]"
        return "[" + inner + ("," + inner).join([dumps(v, inner) for v in x]) + indent + "]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
