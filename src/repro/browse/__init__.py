"""Schema-free browsing (section 1.3 of the paper)."""

from .search import (
    Finding,
    find_attribute_names,
    find_integers_greater_than,
    find_value,
    where_is,
)

__all__ = [
    "Finding",
    "find_value",
    "find_integers_greater_than",
    "find_attribute_names",
    "where_is",
]
