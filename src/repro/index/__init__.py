"""Physical indexes for semistructured data (section 4).

Four structures, combinable through :class:`GraphIndexes`:

* :class:`~repro.index.label_index.LabelIndex` -- label -> edges;
* :class:`~repro.index.value_index.ValueIndex` -- sorted access to base
  data (exact / range / prefix);
* :class:`~repro.index.text_index.TextIndex` -- IR-style word postings
  over string data;
* :class:`~repro.index.path_index.PathIndex` -- materialized root paths
  up to a depth bound.
"""

from __future__ import annotations

from ..core.graph import Graph
from .label_index import LabelIndex
from .path_index import PathIndex, StaleIndexError
from .text_index import TextIndex, tokenize
from .value_index import ValueIndex

#: the :class:`PathIndex` depth bound of a :class:`GraphIndexes` bundle
PATH_DEPTH = 4

__all__ = [
    "LabelIndex",
    "ValueIndex",
    "TextIndex",
    "PathIndex",
    "StaleIndexError",
    "GraphIndexes",
    "tokenize",
]


class GraphIndexes:
    """A bundle of all four indexes over one graph, built lazily.

    The query engines take an optional ``GraphIndexes``; each index is
    constructed the first time a query needs it, so unindexed workloads
    pay nothing.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._label: LabelIndex | None = None
        self._value: ValueIndex | None = None
        self._text: TextIndex | None = None
        self._path: PathIndex | None = None

    @property
    def label(self) -> LabelIndex:
        if self._label is None:
            self._label = LabelIndex(self._graph)
        return self._label

    @property
    def value(self) -> ValueIndex:
        if self._value is None:
            self._value = ValueIndex(self._graph)
        return self._value

    @property
    def text(self) -> TextIndex:
        if self._text is None:
            self._text = TextIndex(self._graph)
        return self._text

    @property
    def path(self) -> PathIndex:
        if self._path is None or self._path.is_stale():
            # unlike the other three (whose staleness is incompleteness,
            # documented and pinned), a stale path index is *wrong*: its
            # target sets may answer a covered path incorrectly.  The
            # bundle rebuilds it transparently; direct PathIndex holders
            # get StaleIndexError from lookup instead.
            self._path = PathIndex(self._graph, max_depth=PATH_DEPTH)
        return self._path

    def build_all(self) -> "GraphIndexes":
        """Force-construct every index (benchmarks use this for fairness)."""
        _ = self.label, self.value, self.text, self.path
        return self

    def refresh(self) -> "GraphIndexes":
        """Drop every built index so the next access rebuilds it.

        The indexes snapshot the graph at construction; after mutating
        the graph they are *stale* (documented, and pinned by the index
        test suite).  ``refresh`` is the supported way back to agreement
        with the live graph.  When the mutation is a known set of edge
        deltas, :meth:`apply_delta` is the cheap alternative.
        """
        self._label = self._value = self._text = self._path = None
        return self

    def apply_delta(self, new_edges) -> "GraphIndexes":
        """Maintain every *built* index incrementally from edge deltas.

        The caller passes the edges a change made newly visible, each
        exactly once (the MVCC store keeps no indexes; its snapshots
        carry their own residents).  Indexes nobody has built
        yet stay unbuilt -- they will construct fresh, hence current, on
        first access.  After the call the path index is fresh without a
        rebuild: the ``StaleIndexError``-free write path.
        """
        new_edges = list(new_edges)
        if new_edges:
            if self._label is not None:
                self._label.refresh(new_edges)
            if self._value is not None:
                self._value.refresh(new_edges)
            if self._text is not None:
                self._text.refresh(new_edges)
        if self._path is not None:
            # even an empty delta re-stamps freshness: a node-only commit
            # bumps the graph version without touching any path
            self._path.refresh(new_edges)
        return self

    def _built(self) -> dict[str, object]:
        return {
            name: idx
            for name, idx in (
                ("label", self._label),
                ("value", self._value),
                ("text", self._text),
                ("path", self._path),
            )
            if idx is not None
        }

    def accounting(self) -> dict[str, dict[str, int]]:
        """Per-index hit/miss counts for every index built so far.

        Only constructed indexes appear -- an index nobody queried was
        never built and has nothing to report.
        """
        return {
            name: {"hits": idx.hits, "misses": idx.misses}
            for name, idx in self._built().items()
        }

    @property
    def total_hits(self) -> int:
        return sum(idx.hits for idx in self._built().values())

    @property
    def total_misses(self) -> int:
        return sum(idx.misses for idx in self._built().values())

    def reset_accounting(self) -> "GraphIndexes":
        """Zero every built index's hit/miss counters (per-query deltas)."""
        for idx in self._built().values():
            idx.hits = 0
            idx.misses = 0
        return self
