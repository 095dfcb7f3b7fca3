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

:class:`Label` is immutable and hashable so that labels can key indexes and
participate in set-valued edge collections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    """

    INT = "int"
    REAL = "real"
    STRING = "string"
    BOOL = "bool"
    SYMBOL = "symbol"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelKind.{self.name}"


# Deterministic ordering of kinds, used by Label.sort_key.
_KIND_ORDER = {
    LabelKind.BOOL: 0,
    LabelKind.INT: 1,
    LabelKind.REAL: 2,
    LabelKind.STRING: 3,
    LabelKind.SYMBOL: 4,
}


@dataclass(frozen=True, slots=True)
class Label:
    """An edge label: one arm of ``int | real | string | bool | symbol``.

    Two labels are equal iff both their kind and their value are equal;
    in particular the *string* ``"Movie"`` and the *symbol* ``Movie`` are
    distinct labels even though both are represented by the same Python
    string.  This distinction is exactly the paper's distinction between
    data values and attribute names.
    """

    kind: LabelKind
    value: AtomValue

    def __post_init__(self) -> None:
        expected = _EXPECTED_TYPES[self.kind]
        if not isinstance(self.value, expected) or (
            self.kind in (LabelKind.INT, LabelKind.REAL)
            and isinstance(self.value, bool)
        ):
            raise TypeError(
                f"label of kind {self.kind.value!r} cannot hold "
                f"{type(self.value).__name__} value {self.value!r}"
            )

    # -- predicates ("switching on the type") --------------------------------

    @property
    def is_symbol(self) -> bool:
        """True iff this label is an attribute-name symbol."""
        return self.kind is LabelKind.SYMBOL

    @property
    def is_base(self) -> bool:
        """True iff this label carries a base data value (not a symbol)."""
        return self.kind is not LabelKind.SYMBOL

    @property
    def is_int(self) -> bool:
        return self.kind is LabelKind.INT

    @property
    def is_real(self) -> bool:
        return self.kind is LabelKind.REAL

    @property
    def is_string(self) -> bool:
        return self.kind is LabelKind.STRING

    @property
    def is_bool(self) -> bool:
        return self.kind is LabelKind.BOOL

    # -- ordering -------------------------------------------------------------

    def sort_key(self) -> tuple:
        """A total-order key across the heterogeneous label space.

        Labels of different kinds are ordered by kind; within a kind, by
        value.  The order itself is arbitrary but deterministic, which is
        what canonical serializations and rendered output need.
        """
        return (_KIND_ORDER[self.kind], self.value)

    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        a, b = self.sort_key(), other.sort_key()
        if a[0] != b[0]:
            return a[0] < b[0]
        try:
            return a[1] < b[1]
        except TypeError:  # e.g. bool vs bool is fine; mixed never reaches here
            return str(a[1]) < str(b[1])

    def __repr__(self) -> str:
        if self.kind is LabelKind.SYMBOL:
            return f"`{self.value}`"
        return repr(self.value)


_EXPECTED_TYPES = {
    LabelKind.INT: int,
    LabelKind.REAL: float,
    LabelKind.STRING: str,
    LabelKind.BOOL: bool,
    LabelKind.SYMBOL: str,
}


def sym(name: str) -> Label:
    """Build a symbol label (an attribute/class name such as ``Movie``)."""
    return Label(LabelKind.SYMBOL, name)


def string(value: str) -> Label:
    """Build a string *data* label (such as ``"Casablanca"``)."""
    return Label(LabelKind.STRING, value)


def integer(value: int) -> Label:
    """Build an integer data label (array indices, counts, years...)."""
    return Label(LabelKind.INT, value)


def real(value: float) -> Label:
    """Build a real (float) data label, e.g. the ``1.2E6`` credit of Fig. 1."""
    return Label(LabelKind.REAL, float(value))


def boolean(value: bool) -> Label:
    """Build a boolean data label."""
    return Label(LabelKind.BOOL, value)


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
