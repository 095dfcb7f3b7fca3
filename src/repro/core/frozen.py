"""Frozen CSR snapshots of a graph: the fast-path read layout.

Angles & Gutierrez (PAPERS.md) identify *native, index-free adjacency*
as the storage property that separates graph databases from graph-on-
dictionary implementations.  :class:`Graph` stores adjacency as a dict of
Python ``Edge`` lists -- ideal for construction and surgery, hostile to
traversal: every ``edges_from`` call copies a tuple, every edge touch
chases an object and hashes a :class:`~repro.core.labels.Label`.

A :class:`FrozenGraph` is an immutable compressed-sparse-row (CSR)
snapshot of the reachable-or-not *whole* node set of a graph:

* labels are interned once into a dense ``label id`` space, so the hot
  loops compare and hash small ints instead of Label dataclasses;
* the adjacency is three flat :mod:`array` vectors (``offsets``,
  ``targets``, ``label_ids``) in edge insertion order, so a node's
  out-edges are one contiguous slice with no per-call allocation;
* each node additionally carries a *per-label partition*: label id ->
  the node's edge indices with that label, which is what lets the RPQ
  product kernel (:mod:`repro.automata.product`) scan only the edges
  whose label can advance the automaton.

The read API mirrors :class:`Graph` (``edges_from`` / ``successors`` /
``total_out_degree`` / ``reachable`` ...), so every read-only evaluator
accepts either form; queries return the same node ids the source graph
used.  There is no write API -- freeze once, query many times.  See
docs/PERFORMANCE.md for when freezing pays off.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Iterable, Iterator

from .graph import Edge, Graph, GraphError
from .labels import Label, sym

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shared import SharedGraphDescriptor, SharedSnapshot

__all__ = ["FrozenGraph", "freeze"]

#: Process-wide snapshot id allocator: every FrozenGraph gets a distinct
#: id, so caches keyed by ``snapshot_id`` can never confuse two snapshots
#: (even of the same source graph at different versions).
_SNAPSHOT_IDS = count(1)


class FrozenGraph:
    """An immutable CSR snapshot of a :class:`Graph`.

    The public attributes are the kernel surface the automata product
    reads directly (treat them as read-only):

    * ``offsets[p] : offsets[p+1]`` -- the edge-index slice of the node
      at position ``p``;
    * ``targets[i]`` / ``label_ids[i]`` / ``srcs[i]`` -- destination
      node id, interned label id, and source node id of edge ``i``;
    * ``labels_seq`` -- label id -> :class:`Label`;
    * ``label_index`` -- :class:`Label` -> label id;
    * ``partitions[p]`` -- label id -> ``array`` of edge indices of the
      node at position ``p`` (insertion order within each label);
    * ``index`` -- node id -> position, or ``None`` when node ids are
      already dense (``id == position``).
    """

    __slots__ = (
        "node_ids",
        "index",
        "offsets",
        "srcs",
        "targets",
        "label_ids",
        "labels_seq",
        "label_index",
        "partitions",
        "snapshot_id",
        "source_version",
        "_root",
        "_edge_cache",
        "_by_label",
        "_reachable_from_root",
        "_ext",
    )

    def __init__(self, graph: Graph) -> None:
        node_ids = list(graph.nodes())
        n = len(node_ids)
        dense = node_ids == list(range(n))
        index: dict[int, int] | None = (
            None if dense else {node: pos for pos, node in enumerate(node_ids)}
        )
        offsets = array("q", [0])
        srcs = array("q")
        targets = array("q")
        label_ids = array("q")
        labels_seq: list[Label] = []
        label_index: dict[Label, int] = {}
        partitions: list[dict[int, array]] = []
        edge_i = 0
        for node in node_ids:
            part: dict[int, array] = {}
            for edge in graph.edges_from(node):
                lid = label_index.get(edge.label)
                if lid is None:
                    lid = label_index[edge.label] = len(labels_seq)
                    labels_seq.append(edge.label)
                srcs.append(edge.src)
                targets.append(edge.dst)
                label_ids.append(lid)
                bucket = part.get(lid)
                if bucket is None:
                    bucket = part[lid] = array("q")
                bucket.append(edge_i)
                edge_i += 1
            partitions.append(part)
            offsets.append(edge_i)
        self.node_ids = node_ids
        self.index = index
        self.offsets = offsets
        self.srcs = srcs
        self.targets = targets
        self.label_ids = label_ids
        self.labels_seq = labels_seq
        self.label_index = label_index
        self.partitions = partitions
        self._root = graph._root if graph.has_root else None
        self.snapshot_id = next(_SNAPSHOT_IDS)
        self.source_version = graph.version
        self._edge_cache: dict[int, tuple[Edge, ...]] = {}
        self._by_label: list[array] | None = None
        self._reachable_from_root: set[int] | None = None
        #: scratch space for per-snapshot derived structures (the query
        #: planner's summary/statistics live here); FrozenGraph has
        #: ``__slots__`` without ``__weakref__``, so extensions attach
        #: through this dict instead of weak side tables.
        self._ext: dict[str, object] = {}

    # -- positions ------------------------------------------------------------

    def _pos(self, node: int) -> int:
        if self.index is None:
            if 0 <= node < len(self.node_ids):
                return node
            raise GraphError(f"unknown node {node}")
        try:
            return self.index[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    # -- the Graph read API ----------------------------------------------------

    @property
    def root(self) -> int:
        if self._root is None:
            raise GraphError("graph has no root")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root is not None

    @property
    def version(self) -> int:
        """The source graph's version at freeze time (constant forever).

        A frozen graph cannot mutate, so indexes built over it can never
        go stale; exposing the frozen-time version keeps the staleness
        protocol uniform across both layouts.
        """
        return self.source_version

    def nodes(self) -> Iterator[int]:
        """All node ids, in the source graph's allocation order."""
        return iter(self.node_ids)

    def has_node(self, node: int) -> bool:
        if self.index is None:
            return 0 <= node < len(self.node_ids)
        return node in self.index

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def edges_from(self, node: int) -> tuple[Edge, ...]:
        """The outgoing edges of ``node`` as :class:`Edge` objects.

        Materialized lazily and memoized per node (the snapshot is
        immutable, so the tuple never goes stale).  The kernel loops
        avoid this method entirely and read the flat arrays instead.
        """
        pos = self._pos(node)
        cached = self._edge_cache.get(pos)
        if cached is None:
            labels_seq = self.labels_seq
            cached = tuple(
                Edge(node, labels_seq[self.label_ids[i]], self.targets[i])
                for i in range(self.offsets[pos], self.offsets[pos + 1])
            )
            self._edge_cache[pos] = cached
        return cached

    def edges(self) -> Iterator[Edge]:
        """All edges, grouped by source node (insertion order)."""
        for node in self.node_ids:
            yield from self.edges_from(node)

    def out_degree(self, node: int) -> int:
        pos = self._pos(node)
        return self.offsets[pos + 1] - self.offsets[pos]

    def total_out_degree(self, nodes: Iterable[int]) -> int:
        """Sum of out-degrees over ``nodes`` (each counted as given)."""
        offsets = self.offsets
        if self.index is None:
            return sum(offsets[node + 1] - offsets[node] for node in nodes)
        idx = self.index
        return sum(offsets[idx[node] + 1] - offsets[idx[node]] for node in nodes)

    def successors(self, node: int, label: Label | None = None) -> Iterator[int]:
        """Targets of outgoing edges, optionally restricted to one label."""
        pos = self._pos(node)
        targets = self.targets
        if label is None:
            for i in range(self.offsets[pos], self.offsets[pos + 1]):
                yield targets[i]
            return
        lid = self.label_index.get(label)
        if lid is None:
            return
        bucket = self.partitions[pos].get(lid)
        if bucket is not None:
            for i in bucket:
                yield targets[i]

    def labels_from(self, node: int) -> set[Label]:
        """The set of distinct labels on edges out of ``node``."""
        labels_seq = self.labels_seq
        return {labels_seq[lid] for lid in self.partitions[self._pos(node)]}

    def all_labels(self) -> set[Label]:
        """Every distinct label appearing anywhere in the graph."""
        return set(self.labels_seq)

    # -- traversal ------------------------------------------------------------

    def reachable(self, start: int | None = None) -> set[int]:
        """Nodes reachable from ``start`` (default: root) by forward edges.

        The root's reachable set is computed once and cached -- the
        snapshot cannot change underneath it -- which is what makes
        repeated browsing queries over one frozen graph cheap.
        """
        if start is None or (self._root is not None and start == self._root):
            if self._reachable_from_root is None:
                self._reachable_from_root = self._reachable_set(self.root)
            return set(self._reachable_from_root)
        return self._reachable_set(start)

    def _reachable_set(self, origin: int) -> set[int]:
        pos = self._pos(origin)  # validates the node
        del pos
        offsets, targets = self.offsets, self.targets
        index = self.index
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            p = node if index is None else index[node]
            for i in range(offsets[p], offsets[p + 1]):
                dst = targets[i]
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return seen

    def bfs_edges(self, start: int | None = None) -> Iterator[Edge]:
        """Edges in BFS discovery order from ``start`` (default: root)."""
        origin = self.root if start is None else start
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for edge in self.edges_from(node):
                yield edge
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)

    # -- label-partition lookups (the browse fast path) -------------------------

    def edges_with_label(self, label: Label) -> tuple[Edge, ...]:
        """Every edge carrying exactly ``label``, in insertion order.

        An exact-label lookup is a walk over that label's edge list
        (:meth:`label_edge_ids`), which is what turns the section-1.3
        browsing scans into point lookups over a frozen graph (no
        :class:`~repro.index.GraphIndexes` needed).
        """
        lid = self.label_index.get(label)
        if lid is None:
            return ()
        srcs, targets = self.srcs, self.targets
        return tuple(Edge(srcs[i], label, targets[i]) for i in self.label_edge_ids(lid))

    def label_edge_ids(self, lid: int) -> array:
        """The indices of the edges carrying label id ``lid``, ascending.

        The per-label edge lists of the whole snapshot are built in one
        pass over ``label_ids`` on first use and kept: they are the
        reverse-lookup structure of the value probes (``find``, Lorel's
        where-clause pushdown), sized by the edge count, not by how many
        labels were asked for.
        """
        by_label = self._by_label
        if by_label is None:
            by_label = self._by_label = [array("q") for _ in self.labels_seq]
            for i, lid_i in enumerate(self.label_ids):
                by_label[lid_i].append(i)
        return by_label[lid]

    # -- construction without a Graph ------------------------------------------

    @classmethod
    def from_edge_stream(
        cls,
        num_nodes: int,
        edges: "Iterable[tuple[int, Label | str, int]]",
        *,
        root: "int | None" = 0,
    ) -> "FrozenGraph":
        """Build a dense CSR snapshot straight from an edge stream.

        ``edges`` yields ``(src, label, dst)`` triples **grouped by
        source in non-decreasing order** (the CSR invariant); node ids
        are the dense range ``0..num_nodes-1``.  A plain-``str`` label is
        a symbol, matching :meth:`Graph.add_edge`.  This is the
        constant-memory ingestion path for generated graphs too large to
        stage as a dict-of-``Edge``-lists :class:`Graph` first -- nothing
        beyond the CSR vectors themselves is ever materialized.
        """
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if root is not None and not 0 <= root < num_nodes:
            raise GraphError(f"root {root} outside the dense node range")
        offsets = array("q", [0])
        srcs = array("q")
        targets = array("q")
        label_ids = array("q")
        labels_seq: list[Label] = []
        label_index: dict[Label, int] = {}
        partitions: list[dict[int, array]] = []
        cursor = 0  # the node whose edge block is open
        edge_i = 0
        part: dict[int, array] = {}
        for src, label, dst in edges:
            if src < cursor:
                raise GraphError(
                    f"edge stream not grouped by source: {src} after {cursor}"
                )
            if not 0 <= src < num_nodes or not 0 <= dst < num_nodes:
                raise GraphError(f"edge ({src}, {dst}) outside the dense node range")
            while cursor < src:  # close empty blocks up to src
                partitions.append(part)
                part = {}
                offsets.append(edge_i)
                cursor += 1
            if isinstance(label, str):
                label = sym(label)
            lid = label_index.get(label)
            if lid is None:
                lid = label_index[label] = len(labels_seq)
                labels_seq.append(label)
            srcs.append(src)
            targets.append(dst)
            label_ids.append(lid)
            bucket = part.get(lid)
            if bucket is None:
                bucket = part[lid] = array("q")
            bucket.append(edge_i)
            edge_i += 1
        while cursor < num_nodes:
            partitions.append(part)
            part = {}
            offsets.append(edge_i)
            cursor += 1
        fg = object.__new__(cls)
        fg.node_ids = range(num_nodes)  # dense: O(1) memory, list-like reads
        fg.index = None
        fg.offsets = offsets
        fg.srcs = srcs
        fg.targets = targets
        fg.label_ids = label_ids
        fg.labels_seq = labels_seq
        fg.label_index = label_index
        fg.partitions = partitions
        fg._root = root
        fg.snapshot_id = next(_SNAPSHOT_IDS)
        fg.source_version = 0
        fg._edge_cache = {}
        fg._by_label = None
        fg._reachable_from_root = None
        fg._ext = {}
        return fg

    # -- shared-memory snapshots ------------------------------------------------

    def to_shared(self) -> "SharedSnapshot":
        """Pack this snapshot into a named shared-memory segment.

        Returns the owning :class:`~repro.core.shared.SharedSnapshot`;
        its picklable ``descriptor`` is what travels to worker processes
        (:meth:`from_shared`).  The caller owns the segment lifecycle:
        ``close()`` *and* ``unlink()`` when done, or use the snapshot as
        a context manager.  See :mod:`repro.core.shared`.
        """
        from .shared import pack

        return pack(self)

    @classmethod
    def from_shared(cls, descriptor: "SharedGraphDescriptor") -> "FrozenGraph":
        """Reattach a packed snapshot, zero-copy, in this process.

        The returned graph's vectors are memoryviews into the shared
        segment -- no adjacency is copied.  The underlying
        :class:`~repro.core.shared.SharedSnapshot` handle rides in
        ``graph._ext["shared"]``; call its ``close()`` when done (workers
        never ``unlink`` -- that is the packing process's duty).
        """
        from .shared import attach

        return attach(descriptor).graph

    # -- misc -----------------------------------------------------------------

    def freeze(self) -> "FrozenGraph":
        """Freezing a frozen graph is the identity (convenience)."""
        return self

    def thaw(self) -> Graph:
        """An equivalent mutable :class:`Graph` (same node ids)."""
        g = Graph()
        for node in self.node_ids:
            g._adj[node] = []
        g._next_id = max(self.node_ids, default=-1) + 1
        for node in self.node_ids:
            g._adj[node] = list(self.edges_from(node))
        if self._root is not None:
            g.set_root(self._root)
        return g

    #: same copy-out as on the mutable layout: a fresh :class:`Graph`
    subgraph = Graph.subgraph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        root = self._root if self._root is not None else "?"
        return (
            f"<FrozenGraph root={root} nodes={self.num_nodes} "
            f"edges={self.num_edges} labels={len(self.labels_seq)}>"
        )


def freeze(graph: "Graph | FrozenGraph") -> FrozenGraph:
    """Snapshot ``graph`` as a :class:`FrozenGraph` (no-op when frozen)."""
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph(graph)
