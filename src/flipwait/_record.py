"""Value classes without `dataclasses`, whose decorator costs about a millisecond per class at import.

A subclass lists its fields in `_fields` and sets them in its own
`__init__`.  Equality, hashing and `repr` read the fields, in that order,
as those of a dataclass with eq=True do: instances are equal only to
instances of the same class with equal fields, never to a tuple.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equal by class and fields, shown by its fields; unhashable, like a dataclass with eq=True."""

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()  # fields compared but left out of repr

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:  # Frozen has none
            # built once per class; for a single field the key is its value, not a 1-tuple
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """A record hashed by its fields whose attributes cannot change, like a frozen dataclass.

    `__init__` sets the attributes through `vars(self)`.
    """

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
