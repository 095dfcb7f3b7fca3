"""Lorel's coercing comparisons.

Section 3: "Lorel ... requires a rich set of overloadings for its
operators for dealing with comparisons of objects with values and of
values with sets."  Centralizing the overloading rules here keeps the
evaluator small:

* **object vs value** -- an atomic object compares by its atom; a complex
  object never equals an atomic value;
* **value vs set** -- set-valued operands compare *existentially*: the
  comparison holds if some element satisfies it (handled by the evaluator
  calling :func:`compare_values` per element);
* **type coercion** -- numeric widening int <-> float, and string <->
  number parsing (``"1942" = 1942`` holds), following Lorel's forgiving
  comparisons; booleans only compare to booleans.
"""

from __future__ import annotations

import fnmatch

from ..core.labels import parse_number

__all__ = ["coerce_pair", "compare_values", "like_value"]


def coerce_pair(left: object, right: object) -> "tuple[object, object] | None":
    """Coerce two atoms to a comparable pair, or ``None`` if incomparable."""
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        return None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    # string <-> number coercion
    if isinstance(left, str) and isinstance(right, (int, float)):
        parsed = parse_number(left)
        return (parsed, right) if parsed is not None else None
    if isinstance(right, str) and isinstance(left, (int, float)):
        parsed = parse_number(right)
        return (left, parsed) if parsed is not None else None
    return None


def compare_values(left: object, op: str, right: object) -> bool:
    """One atomic comparison under Lorel coercion rules."""
    pair = coerce_pair(left, right)
    if pair is None:
        # incomparable values: only inequality holds
        return op == "!="
    a, b = pair
    try:
        return {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[op]
    except TypeError:  # pragma: no cover - coerce_pair prevents this
        return False


def like_value(value: object, pattern: str) -> bool:
    """SQL-flavoured ``like`` with ``%`` wildcards, strings only."""
    if not isinstance(value, str):
        return False
    return fnmatch.fnmatchcase(value, pattern.replace("%", "*"))
