"""The base of tvmood's validating records.

A record that checks its fields or derives state from them is a plain
slotted class on :class:`Record`, whose ``__init__`` sets the fields
from its arguments; a plain value record is a ``typing.NamedTuple``.
Neither is a ``dataclasses`` class. Importing ``dataclasses``, with the
``inspect``, ``ast`` and ``dis`` modules it loads, and processing the
class bodies with it cost each tvmood process about 35 ms of CPU at
start-up on a 2-vCPU VM with Python 3.11 (``BENCH_17.json``).

Every JSON object that tvmood reads (corpus records, which only
``corpus.read_records`` decodes, genre profiles and saved models) goes
through :func:`unique_keys`, so a repeated key is an error rather than a
silent last-wins; :func:`has_shape` is the one shape rule of their fields.
"""

from __future__ import annotations

from itertools import chain, repeat

_set = object.__setattr__


class Record:
    """An immutable slotted object, compared by the fields its constructor takes.

    A subclass names those fields, in constructor order, in ``_fields``;
    its ``__slots__`` holds them and any state it derives from them. Its
    ``__init__`` passes the fields, in the order ``__reduce__`` rebuilds
    with, to ``Record.__init__``, and sets each derived slot itself with
    ``object.__setattr__``. Equality, hashing, the ``Name(field=value, ...)``
    repr, copying and pickling read ``_fields`` only, so derived state stays
    out of them. Setting or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")


def unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """``object_pairs_hook`` for ``json``: the object's pairs as a dict, or a
    ValueError naming the first key that the object repeats."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"repeated key {repeated!r}")
    return record


def has_shape(value: object, depth: int, kinds: tuple | None, length: int | None = None) -> bool:
    """Whether ``value`` is lists or tuples nested ``depth`` deep around ``length``
    leaves (any number where None) of the types ``kinds`` (any where None), no bool."""
    values = [value]
    for _ in range(depth):  # C-level passes, a level at a time
        if not all(map(isinstance, values, repeat((list, tuple)))):
            return False
        values = list(chain.from_iterable(values))
    return length in (None, len(values)) and (
        kinds is None
        or bool not in set(map(type, values)) and all(map(isinstance, values, repeat(kinds)))
    )
