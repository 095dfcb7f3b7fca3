"""Value index: range and prefix access to base-data labels.

Supports the browsing queries of section 1.3 that no schema-first language
can answer generically:

* "Where in the database is the string 'Casablanca' to be found?"
  -- exact string lookup;
* "Are there integers in the database greater than 2^16?"
  -- numeric range scan.

Numbers (ints and reals together, as a total order) and strings are kept in
sorted arrays with ``bisect`` access, so range/prefix queries cost
``O(log n + answer)``; exact lookups use a hash map.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from ..core.graph import Edge, Graph
from ..core.labels import Label, LabelKind

__all__ = ["ValueIndex"]

_STRING, _NUMBERS = LabelKind.STRING, (LabelKind.INT, LabelKind.REAL)


class ValueIndex:
    """Sorted + hashed access to every base-data label in a graph.

    Lookups are hit/miss accounted (hit = at least one edge answered);
    the counts feed the observability layer's per-query profiles.
    """

    def __init__(self, graph: Graph) -> None:
        self.hits = 0
        self.misses = 0
        self._exact: dict[Label, list[Edge]] = {}
        numbers: list[tuple[float, Edge]] = []
        strings: list[tuple[str, Edge]] = []
        for node in graph.reachable():
            for edge in graph.edges_from(node):
                label = edge.label
                if label.is_symbol:
                    continue
                self._exact.setdefault(label, []).append(edge)
                if label.kind in _NUMBERS:
                    numbers.append((float(label.value), edge))
                elif label.kind is _STRING:
                    strings.append((str(label.value), edge))
        numbers.sort(key=lambda pair: pair[0])
        strings.sort(key=lambda pair: pair[0])
        self._number_keys = [k for k, _ in numbers]
        self._number_edges = [e for _, e in numbers]
        self._string_keys = [k for k, _ in strings]
        self._string_edges = [e for _, e in strings]

    def _account(self, found: bool) -> None:
        if found:
            self.hits += 1
        else:
            self.misses += 1

    # -- incremental maintenance -------------------------------------------------

    def refresh(self, new_edges: "Iterable[Edge]") -> "ValueIndex":
        """Fold newly visible edges in, keeping the sorted arrays sorted.

        Each data edge costs one hash insert plus one ``insort`` into
        its kind's array -- proportional to the delta, not the database.
        """
        for edge in new_edges:
            label = edge.label
            if label.is_symbol:
                continue
            self._exact.setdefault(label, []).append(edge)
            if label.kind in _NUMBERS:
                key = float(label.value)
                at = bisect.bisect_right(self._number_keys, key)
                self._number_keys.insert(at, key)
                self._number_edges.insert(at, edge)
            elif label.kind is _STRING:
                key = str(label.value)
                at = bisect.bisect_right(self._string_keys, key)
                self._string_keys.insert(at, key)
                self._string_edges.insert(at, edge)
        return self

    # -- exact ----------------------------------------------------------------

    def find_exact(self, label: Label) -> tuple[Edge, ...]:
        """All edges whose data label equals ``label`` exactly."""
        edges = self._exact.get(label)
        self._account(edges is not None)
        return tuple(edges) if edges is not None else ()

    # -- numeric ranges ----------------------------------------------------------

    def numbers_greater_than(self, bound: float, strict: bool = True) -> Iterator[Edge]:
        """Edges whose numeric label exceeds ``bound`` (the 2^16 query)."""
        if strict:
            lo = bisect.bisect_right(self._number_keys, bound)
        else:
            lo = bisect.bisect_left(self._number_keys, bound)
        self._account(lo < len(self._number_keys))
        yield from self._number_edges[lo:]

    def numbers_in_range(self, low: float, high: float) -> Iterator[Edge]:
        """Edges with ``low <= value <= high``."""
        lo = bisect.bisect_left(self._number_keys, low)
        hi = bisect.bisect_right(self._number_keys, high)
        self._account(lo < hi)
        yield from self._number_edges[lo:hi]

    # -- string prefixes -----------------------------------------------------------

    def strings_with_prefix(self, prefix: str) -> Iterator[Edge]:
        """Edges whose string label starts with ``prefix``."""
        lo = bisect.bisect_left(self._string_keys, prefix)
        hi = bisect.bisect_left(self._string_keys, prefix + "￿")
        self._account(lo < hi)
        yield from self._string_edges[lo:hi]

    def strings_in_range(self, low: str, high: str) -> Iterator[Edge]:
        """Edges with ``low <= value <= high`` lexicographically."""
        lo = bisect.bisect_left(self._string_keys, low)
        hi = bisect.bisect_right(self._string_keys, high)
        self._account(lo < hi)
        yield from self._string_edges[lo:hi]

    # -- statistics --------------------------------------------------------------

    @property
    def num_numbers(self) -> int:
        return len(self._number_keys)

    @property
    def num_strings(self) -> int:
        return len(self._string_keys)
