"""Tagged-union edge labels for the semistructured data model.

Buneman (PODS '97, section 2) formulates the label type of the edge-labeled
model as::

    type label = int | string | ... | symbol

Labels are drawn from a heterogeneous collection of base types (``int``,
``string``, and possibly other base types such as ``real`` and ``bool``)
plus *symbols* -- the strings that conventional models would use as
attribute or class names ("internally they are represented as strings").
The data is "self-describing" precisely because a program can *switch* on
the kind of a label at run time; this module is therefore the foundation of
every dynamic-typing predicate in the query languages (``isInt``,
``isString``, ``isSymbol``...).

:class:`Label` is the pair ``(kind, value)`` as a ``tuple`` subclass.
Labels key every index and intern table, so their identity is the
tuple's own: hashing, equality and the ``kind``/``value`` reads run in C,
never in a Python method.  Equality stays kind-aware because the kind is
half the tuple.  The value's type is checked by the public constructors
(:func:`sym`, :func:`string`, :func:`integer`, :func:`real`,
:func:`boolean`, :func:`label_of` and ``Label(kind, value)``); decoders
whose bytes already fix the kind build labels with ``tuple.__new__``.
"""

from __future__ import annotations

import enum
from collections import _tuplegetter
from typing import Union

__all__ = [
    "LabelKind",
    "Label",
    "sym",
    "string",
    "integer",
    "real",
    "boolean",
    "label_of",
    "parse_number",
    "AtomValue",
]

#: Python values that may appear inside a label.
AtomValue = Union[int, float, str, bool]


class LabelKind(enum.Enum):
    """The arm of the tagged union a label belongs to.

    ``SYMBOL`` plays the role of attribute/class names (``Movie``,
    ``Title``); the remaining kinds are base *data* types that the model
    allows directly on edges ("edges are labeled both with data, of types
    such as int and string ... and with names such as Movie and Title").
    Kinds order as ``bool < int < real < string < symbol``.
    """

    INT = "int"
    REAL = "real"
    STRING = "string"
    BOOL = "bool"
    SYMBOL = "symbol"

    #: members are singletons: identity hashing, in C (``Enum.__hash__``
    #: is a Python method hashing the member's name)
    __hash__ = object.__hash__

    def __lt__(self, other: "LabelKind") -> bool:
        if not isinstance(other, LabelKind):
            return NotImplemented
        return _KIND_ORDER[self] < _KIND_ORDER[other]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelKind.{self.name}"


# a member read through the class costs about ten global reads, so the
# hot paths use these (definition order)
_INT, _REAL, _STRING, _BOOL, _SYMBOL = LabelKind
# Deterministic ordering of kinds, used by Label.sort_key.
_KIND_ORDER = {_BOOL: 0, _INT: 1, _REAL: 2, _STRING: 3, _SYMBOL: 4}

_new = tuple.__new__


class Label(tuple):
    """An edge label: one arm of ``int | real | string | bool | symbol``.

    Two labels are equal iff both their kind and their value are equal;
    in particular the *string* ``"Movie"`` and the *symbol* ``Movie`` are
    distinct labels even though both are represented by the same Python
    string.  This distinction is exactly the paper's distinction between
    data values and attribute names.  Labels order by kind, then by value
    within a kind.
    """

    __slots__ = ()

    kind = _tuplegetter(0, "The arm of the union, a :class:`LabelKind`.")
    value = _tuplegetter(1, "The Python value the label carries.")

    def __new__(cls, kind: LabelKind, value: AtomValue) -> "Label":
        if not isinstance(value, _EXPECTED_TYPES[kind]) or (
            isinstance(value, bool) and kind is not _BOOL
        ):
            raise TypeError(
                f"label of kind {kind.value!r} cannot hold "
                f"{type(value).__name__} value {value!r}"
            )
        return _new(cls, (kind, value))

    def __getnewargs__(self) -> "tuple[LabelKind, AtomValue]":
        return tuple(self)

    # -- predicates ("switching on the type") --------------------------------

    is_symbol = property(lambda self: self.kind is _SYMBOL, doc="An attribute-name symbol?")
    is_base = property(lambda self: self.kind is not _SYMBOL, doc="A base data value?")
    is_int = property(lambda self: self.kind is _INT)
    is_real = property(lambda self: self.kind is _REAL)
    is_string = property(lambda self: self.kind is _STRING)
    is_bool = property(lambda self: self.kind is _BOOL)

    # -- ordering -------------------------------------------------------------

    def sort_key(self) -> tuple:
        """A total-order key across the heterogeneous label space.

        Labels of different kinds are ordered by kind; within a kind, by
        value.  The order itself is arbitrary but deterministic, which is
        what canonical serializations and rendered output need.  ``<`` on
        labels is the tuple order, which agrees with it.
        """
        return (_KIND_ORDER[self.kind], self.value)

    def __repr__(self) -> str:
        return f"`{self.value}`" if self.kind is _SYMBOL else repr(self.value)


_EXPECTED_TYPES = {_INT: int, _REAL: float, _STRING: str, _BOOL: bool, _SYMBOL: str}


def sym(name: str) -> Label:
    """Build a symbol label (an attribute/class name such as ``Movie``)."""
    if isinstance(name, str):  # the common case skips Label.__new__'s dispatch
        return _new(Label, (_SYMBOL, name))
    return Label(_SYMBOL, name)


def string(value: str) -> Label:
    """Build a string *data* label (such as ``"Casablanca"``)."""
    if isinstance(value, str):
        return _new(Label, (_STRING, value))
    return Label(_STRING, value)


def integer(value: int) -> Label:
    """Build an integer data label (array indices, counts, years...)."""
    return Label(_INT, value)


def real(value: float) -> Label:
    """Build a real (float) data label, e.g. the ``1.2E6`` credit of Fig. 1."""
    return Label(_REAL, float(value))


def boolean(value: bool) -> Label:
    """Build a boolean data label."""
    return Label(_BOOL, value)


def label_of(value: "AtomValue | Label") -> Label:
    """Coerce a raw Python value into a base-data label.

    ``bool`` is checked before ``int`` because ``bool`` is a subtype of
    ``int`` in Python.  Strings become *string* labels; use :func:`sym` to
    build symbols explicitly -- the guess would be wrong half the time and
    the paper is explicit that the two are different things.
    """
    if isinstance(value, Label):
        return value
    if isinstance(value, bool):
        return boolean(value)
    if isinstance(value, int):
        return integer(value)
    if isinstance(value, float):
        return real(value)
    if isinstance(value, str):
        return string(value)
    raise TypeError(f"cannot make a label from {type(value).__name__}: {value!r}")


def parse_number(text: str) -> "int | float | None":
    """The number a string denotes under Lorel's string <-> number
    coercion (``int`` first, then ``float``; ``" 7 "``, ``"1_000"``,
    ``"inf"`` and ``"nan"`` all parse), or ``None``."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None
