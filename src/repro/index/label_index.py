"""Label index: which edges carry which label.

Section 4 suggests "the addition of path or text indices on labels and
strings" as the first optimization for semistructured query processing.
The label index is the simplest of these: an inverted map from each label
to the edges carrying it.  Queries that start from a known attribute name
(``select ... where Entry.Movie...``) use it to avoid full traversal, and
the browsing query "what objects have an attribute name starting with
'act'" (section 1.3) becomes a scan of the index's *key set* instead of
the whole database.
"""

from __future__ import annotations

import fnmatch
from typing import Iterable, Iterator

from ..core.graph import Edge, Graph
from ..core.labels import Label, LabelKind

__all__ = ["LabelIndex"]


class LabelIndex:
    """Inverted index ``label -> edges`` over the reachable part of a graph.

    Every lookup is accounted: a query that found at least one edge is a
    *hit*, one that found none a *miss*.  ``hits``/``misses`` are plain
    always-on integers (see docs/OBSERVABILITY.md); the profiled browse
    queries report per-query deltas of them.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._by_label: dict[Label, list[Edge]] = {}
        self._edge_count = 0
        self.hits = 0
        self.misses = 0
        for node in graph.reachable():
            for edge in graph.edges_from(node):
                self._by_label.setdefault(edge.label, []).append(edge)
                self._edge_count += 1

    def _account(self, found: bool) -> None:
        if found:
            self.hits += 1
        else:
            self.misses += 1

    # -- incremental maintenance -------------------------------------------------

    def refresh(self, new_edges: "Iterable[Edge]") -> "LabelIndex":
        """Fold newly visible edges in (the MVCC store's delta path).

        The graph is append-only, so maintenance is pure insertion: each
        edge lands in its label's posting list.  The caller (the store)
        guarantees each visible edge is delivered exactly once.
        """
        for edge in new_edges:
            self._by_label.setdefault(edge.label, []).append(edge)
            self._edge_count += 1
        return self

    # -- lookups ---------------------------------------------------------------

    def edges_with_label(self, label: Label) -> tuple[Edge, ...]:
        """All edges carrying exactly ``label`` (empty if none)."""
        edges = self._by_label.get(label)
        self._account(edges is not None)
        return tuple(edges) if edges is not None else ()

    def sources_with_label(self, label: Label) -> set[int]:
        """Nodes that have at least one outgoing ``label`` edge."""
        edges = self._by_label.get(label)
        self._account(edges is not None)
        return {e.src for e in edges} if edges is not None else set()

    def targets_of_label(self, label: Label) -> set[int]:
        """Nodes reached by at least one ``label`` edge."""
        edges = self._by_label.get(label)
        self._account(edges is not None)
        return {e.dst for e in edges} if edges is not None else set()

    def labels(self, kind: LabelKind | None = None) -> Iterator[Label]:
        """All distinct labels, optionally restricted to one kind."""
        for label in self._by_label:
            if kind is None or label.kind is kind:
                yield label

    def symbols_matching(self, pattern: str) -> list[Label]:
        """Symbols whose name matches a ``%``-wildcard pattern.

        This answers section 1.3's "attribute name that starts with 'act'"
        directly from index keys -- no graph traversal at all.
        """
        glob = pattern.replace("%", "*")
        matched = sorted(
            (
                label
                for label in self._by_label
                if label.is_symbol and fnmatch.fnmatchcase(str(label.value), glob)
            ),
            key=Label.sort_key,
        )
        self._account(bool(matched))
        return matched

    def count(self, label: Label) -> int:
        """Number of edges carrying ``label`` (a basic optimizer statistic)."""
        return len(self._by_label.get(label, ()))

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def selectivity(self, label: Label) -> float:
        """Fraction of all edges carrying ``label`` (0.0 when absent)."""
        if not self._edge_count:
            return 0.0
        return self.count(label) / self._edge_count
