"""The family kinds' table: what each kind takes, where it sits, which identity it enters.

`KINDS` is the one place that holds the facts other modules need about a
kind: its parameter names and their least value, where its seed sits, its
series shift and the summation identity (corollary) it enters.  It is a leaf
that imports only `typing`, so the CLI's parser reads it without loading the
recurrence core.
"""

from typing import NamedTuple


class Kind(NamedTuple):
    """What a family kind takes and where it sits; `KINDS` holds one per kind."""

    names: tuple[str, ...]  # parameter names, in label order
    least: int  # least value of every parameter
    seed: int  # base index less the sum of the parameters
    shift: int  # series_shift: series index less family index
    corollary: str  # id of the summation identity the family enters


KINDS = {
    "fib": Kind(("k",), 1, -1, 1, "id1"),
    "fib-bar": Kind(("k",), 1, -1, 2, "id1bar"),
    "fib2": Kind(("k", "m"), 0, -1, 2, "id2"),
    "fib-tilde": Kind(("k", "m"), 0, -1, 3, "id3"),
    "alt": Kind(("s",), 1, 0, 0, "alt"),
}
# corollary id -> family kind
COROLLARIES = {kind.corollary: name for name, kind in KINDS.items()}
