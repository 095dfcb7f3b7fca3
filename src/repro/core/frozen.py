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
  loops compare and hash small ints instead of Label tuples;
* the adjacency is three flat :mod:`array` vectors (``offsets``,
  ``targets``, ``label_ids``) in edge insertion order, so a node's
  out-edges are one contiguous slice with no per-call allocation;
* each node's slice is cut into *label runs*, maximal stretches of one
  label id, stored as a label id and a width each and read forward from
  the slice's start; a node's edges with label ``l`` are the ``targets``
  slices of its runs of ``l``, in insertion order.  That lets the RPQ
  product kernel (:mod:`repro.automata.product`) scan only the edges
  whose label can advance the automaton.  The runs are the one
  per-label layout: flat vectors over the same edges, nothing per node.

Each fact is stored once.  An edge's source is the block that holds it
(a reader starting from an edge rather than a node asks the probe index,
:mod:`repro.index.probes`, whose entries name it), and a block's bounds
are only in ``offsets``.

The read API mirrors :class:`Graph` (``edges_from`` / ``successors`` /
``total_out_degree`` / ``reachable`` ...), so every read-only evaluator
accepts either form; queries return the same node ids the source graph
used.  There is no write API -- freeze once, query many times.  See
docs/PERFORMANCE.md for when freezing pays off.

One builder (:func:`_build`) serves a cold freeze and
:meth:`FrozenGraph.derive` -- a previous snapshot plus the nodes and
edges committed since.  New nodes append and label ids are interned
append-only, so the base's positions and ids stay valid; the base is
never mutated.  A derived snapshot equals a cold freeze of the same
graph, run for run, up to a renaming of label ids (none when new labels
first occur on new nodes).  :func:`_runs` finds the runs of a cold
freeze, a derivation's new edges, an edge stream and a checkpoint.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from itertools import accumulate, compress, islice, repeat
from operator import ne, sub
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Edge, Graph, GraphError
from .labels import Label, sym

__all__ = ["FrozenGraph", "PER_VERSION_RESIDENTS", "freeze"]

#: The ``_ext`` residents that live and die with one version: a commit
#: drops them from the snapshot it retires, and the next version builds
#: its own on first use.  Every other resident has an ``advance(fg,
#: edges)`` that carries it to the next version (the probe index); a test
#: holds the two kinds exhaustive.
PER_VERSION_RESIDENTS = ("sqlbackend",)


class FrozenGraph:
    """An immutable CSR snapshot of a :class:`Graph`.

    The public attributes are the kernel surface the automata product
    reads directly (treat them as read-only):

    * ``offsets[p] : offsets[p+1]`` -- the edge-index slice of the node
      at position ``p``;
    * ``targets[i]`` / ``label_ids[i]`` -- destination node id and
      interned label id of edge ``i``;
    * ``labels_seq`` -- label id -> :class:`Label`;
    * ``label_index`` -- :class:`Label` -> label id;
    * ``run_off[p] : run_off[p+1]`` -- the label runs of the node at
      position ``p``, in edge order; run ``r`` carries label id
      ``run_lid[r]`` on ``run_len[r]`` consecutive edges, the first run
      starting at ``offsets[p]`` and each next one where the last ends;
    * ``index`` -- node id -> position, or ``None`` when node ids are
      already dense (``id == position``).
    """

    __slots__ = (
        "node_ids",
        "index",
        "offsets",
        "targets",
        "label_ids",
        "labels_seq",
        "label_index",
        "run_off",
        "run_lid",
        "run_len",
        "source_version",
        "_root",
        "_edge_cache",
        "_reachable_from_root",
        "_ext",
    )

    def __init__(self, graph: Graph) -> None:
        root = graph._root if graph.has_root else None
        _build(self, None, (), list(graph.nodes()), graph.edges_from, root, graph.version)

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
            yield from targets[self.offsets[pos] : self.offsets[pos + 1]]
            return
        lid = self.label_index.get(label)
        run_lid, run_len = self.run_lid, self.run_len
        start = self.offsets[pos]
        for r in range(self.run_off[pos], self.run_off[pos + 1]):
            end = start + run_len[r]
            if run_lid[r] == lid:
                yield from targets[start:end]
            start = end

    def labels_from(self, node: int) -> set[Label]:
        """The set of distinct labels on edges out of ``node``."""
        pos, labels_seq = self._pos(node), self.labels_seq
        return {labels_seq[lid] for lid in self.run_lid[self.run_off[pos] : self.run_off[pos + 1]]}

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
        self._pos(origin)  # validates the node
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

    def edges_with_label(self, label: Label) -> tuple[Edge, ...]:
        """Every edge carrying exactly ``label``, in insertion order: that
        label's edge list in the snapshot's probe index
        (:mod:`repro.index.probes`)."""
        from ..index.probes import probes_for

        lid = self.label_index.get(label)
        if lid is None:
            return ()
        targets = self.targets
        return tuple(
            Edge(src, label, targets[i]) for i, src in sorted(probes_for(self).labeled(lid))
        )

    # -- construction without a Graph ------------------------------------------

    @classmethod
    def from_edge_stream(
        cls,
        num_nodes: int,
        edges: "Iterable[tuple[int, Label | str, int]]",
        *,
        root: "int | None" = 0,
    ) -> "FrozenGraph":
        """Build a dense CSR snapshot (nodes ``0..num_nodes-1``) straight
        from an edge stream.

        ``edges`` yields ``(src, label, dst)`` triples **grouped by source
        in ascending order** (the CSR invariant); a plain-``str`` label is
        a symbol, matching :meth:`Graph.add_edge`.  Nothing beyond the CSR
        vectors is ever materialized, which is what crawls too large to
        stage as a :class:`Graph` need.

        The loop is its own, not :func:`_build`'s: that one reads
        ``Edge`` attributes, and an ``Edge`` per streamed triple made a
        533 000-edge crawl build a quarter slower.
        """
        offsets = array("q")  # block starts, then the end
        targets = array("q")
        label_ids = array("q")
        labels_seq: list[Label] = []
        label_index: dict[Label, int] = {}
        block = None  # the node whose edge block is open
        for src, label, dst in edges:
            while src != block:  # open blocks up to src's
                block = len(offsets)
                if block >= num_nodes:
                    raise GraphError(f"edge stream not grouped by source at node {src}")
                offsets.append(len(targets))
            if isinstance(label, str):
                label = sym(label)
            lid = label_index.get(label)
            if lid is None:
                lid = label_index[label] = len(labels_seq)
                labels_seq.append(label)
            targets.append(dst)
            label_ids.append(lid)
        # the empty blocks after the last edge, then the end
        offsets.extend(repeat(len(targets), num_nodes + 1 - len(offsets)))
        fg = object.__new__(cls)
        _fill(fg, range(num_nodes), offsets, targets, label_ids,
              labels_seq, label_index, _runs(offsets, label_ids), root, 0)
        stray = targets and (min(targets) < 0 or max(targets) >= num_nodes)
        if stray or (root is not None and not fg.has_node(root)):
            raise GraphError("edge stream points outside its nodes")
        return fg

    def derive(
        self,
        nodes: "Sequence[int]",
        edges: "Iterable[Edge]",
        root: "int | None",
        version: int,
    ) -> "FrozenGraph":
        """The next version: this snapshot plus ``nodes`` and ``edges``.

        ``nodes`` are fresh ids in allocation order; ``edges`` anything
        with ``src`` / ``label`` / ``dst`` (an :class:`Edge`, a WAL
        ``AddEdge``) in commit order.  ``self`` is not touched (module
        docstring).
        """
        fresh = set(nodes)
        if len(fresh) != len(nodes) or any(map(self.has_node, fresh)):
            raise GraphError("derived nodes must be fresh ids, each given once")
        by_src: dict[int, list] = {node: [] for node in nodes}
        for edge in edges:
            by_src.setdefault(edge.src, []).append(edge)
        grown = sorted((self._pos(src), src) for src in by_src.keys() - fresh)
        staged = [src for _, src in grown] + list(nodes)
        fg = object.__new__(FrozenGraph)
        _build(fg, self, [pos for pos, _ in grown], staged, by_src.__getitem__, root, version)
        return fg

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


def _build(
    fg: FrozenGraph,
    base: "FrozenGraph | None",
    grown: "Sequence[int]",
    nodes: "list[int]",
    edges_of: "Callable[[int], Iterable[Edge]]",
    root: "int | None",
    version: int,
) -> None:
    """Fill ``fg``'s slots with ``base`` (or nothing) plus ``nodes``.

    ``nodes`` are first the base nodes at the ascending positions
    ``grown``, then the new nodes in order; ``edges_of(node)`` gives each
    one's new out-edges.  One loop stages every node's block as if the
    node were new.  A gained block is then spliced into the base's
    vectors at the end of its node's block, its runs after the node's
    base runs; only the block ends and run offsets past it shift.
    """
    staged = targets, label_ids = array("q"), array("q")
    ends = array("q", [0])  # staged block ends
    labels_seq = list(base.labels_seq) if base is not None else []
    label_index = dict(base.label_index) if base is not None else {}
    for node in nodes:
        for edge in edges_of(node):
            label, dst = edge.label, edge.dst
            lid = label_index.get(label)
            if lid is None:
                lid = label_index[label] = len(labels_seq)
                labels_seq.append(label)
            targets.append(dst)
            label_ids.append(lid)
        ends.append(len(targets))
    if base is None:
        n0, fresh, offsets, runs = 0, nodes, ends, _runs(ends, label_ids)
    else:
        k, n0, fresh = len(grown), base.num_nodes, nodes[len(grown) :]
        cuts = [(base.offsets[pos + 1], ends[j + 1]) for j, pos in enumerate(grown)]
        olds = base.targets, base.label_ids
        s_off, s_lid, s_len = _runs(ends, label_ids)
        targets, label_ids = (_splice(old, new, cuts) for old, new in zip(olds, staged))
        # a base node's block end moves by the staged blocks before it, and
        # its run offsets by the staged runs kept before it
        bounds = [0, *(pos + 1 for pos in grown), n0 + 1]
        offsets, run_off, run_lid, run_len = (array("q") for _ in range(4))
        kept = 0
        for j in range(k + 1):
            lo, hi = bounds[j], bounds[j + 1]
            offsets += _shifted(base.offsets[lo:hi], ends[j])
            run_off += _shifted(base.run_off[lo:hi], kept)
            own = slice(base.run_off[lo], base.run_off[min(hi, n0)])
            run_lid += base.run_lid[own]
            run_len += base.run_len[own]
            if j < k:  # grown node j's staged runs, the first continuing its last
                first, stop = s_off[j], s_off[j + 1]
                if base.run_off[hi - 1] < base.run_off[hi] and run_lid[-1] == s_lid[first]:
                    run_len[-1] += s_len[first]
                    first += 1
                run_lid += s_lid[first:stop]
                run_len += s_len[first:stop]
                kept += stop - first
        offsets += _shifted(ends[k + 1 :], base.num_edges)
        run_off += _shifted(s_off[k + 1 :], len(base.run_lid) + kept - s_off[k])
        run_lid += s_lid[s_off[k] :]
        run_len += s_len[s_off[k] :]
        runs = run_off, run_lid, run_len
    if (base is None or base.index is None) and fresh == list(range(n0, n0 + len(fresh))):
        node_ids = range(n0 + len(fresh))
    else:
        node_ids = [*(base.node_ids if base is not None else ()), *fresh]
    _fill(fg, node_ids, offsets, targets, label_ids, labels_seq, label_index, runs, root, version)


def _runs(offsets: "Sequence[int]", label_ids: array) -> "tuple[array, array, array]":
    """``(run_off, run_lid, run_len)`` for the blocks ``offsets`` cuts
    ``label_ids`` into: a run starts at a block's first edge and wherever
    the label id changes.  Each pass over the edges is C-level iteration,
    into a list (an ``array`` grows item by item from an iterator)."""
    m = len(label_ids)
    first = bytearray(1) + bytearray(map(ne, label_ids, label_ids[1:])) + bytearray(1)
    for off in offsets:
        first[off] = 1
    starts = array("q", list(compress(range(m + 1), first)))  # first[m] closes the last run
    run_len = array("q", list(map(sub, islice(starts, 1, None), starts)))
    before = list(accumulate(first, initial=0))  # before[i]: the runs starting before edge i
    run_off = array("q", list(map(before.__getitem__, offsets)))
    return run_off, array("q", list(compress(label_ids, first))), run_len


def _fill(
    fg: FrozenGraph, node_ids: "range | array | list[int]", offsets: array,
    targets: array, label_ids: array, labels_seq: "list[Label]",
    label_index: "dict[Label, int]", runs: "tuple[array, array, array]",
    root: "int | None", version: int,
) -> None:
    """Set ``fg``'s slots over finished vectors.  ``node_ids`` is a
    ``range`` when ids are dense (``id == position``: O(1) memory, no
    index), else the ids in position order; ``runs`` is
    ``(run_off, run_lid, run_len)``."""
    fg.node_ids = node_ids
    fg.index = (
        None if isinstance(node_ids, range) else {n: pos for pos, n in enumerate(node_ids)}
    )
    fg.offsets = offsets
    fg.targets = targets
    fg.label_ids = label_ids
    fg.labels_seq = labels_seq
    fg.label_index = label_index
    fg.run_off, fg.run_lid, fg.run_len = runs
    fg._root = root
    fg.source_version = version
    fg._edge_cache = {}
    fg._reachable_from_root = None
    #: the snapshot's residents: derived structures keyed by name (see
    #: PER_VERSION_RESIDENTS); FrozenGraph has ``__slots__`` without
    #: ``__weakref__``, so they attach here instead of in weak side tables
    fg._ext = {}


def _shifted(vec: array, by: int) -> array:
    """``vec`` with ``by`` added to every item, as one big-integer sum: the
    items and ``by`` are non-negative and each result stays below 2**63,
    so no 64-bit lane carries into the next (``vec`` itself when 0)."""
    if not by:
        return vec
    order = sys.byteorder
    lanes = int.from_bytes(vec, order) + int.from_bytes(array("q", [by]) * len(vec), order)
    return array("q", lanes.to_bytes(8 * len(vec), order))


def _splice(old: array, new: array, cuts: "list[tuple[int, int]]") -> array:
    """``old`` with the runs ``new[..stop]`` inserted at their ``cut``s and
    the rest of ``new`` appended, by C-level slicing."""
    out, at, start = array("q"), 0, 0
    for cut, stop in cuts:
        out += old[at:cut]
        out += new[start:stop]
        at, start = cut, stop
    return out + old[at:] + new[start:]


def freeze(graph: "Graph | FrozenGraph") -> FrozenGraph:
    """Snapshot ``graph`` as a :class:`FrozenGraph` (no-op when frozen)."""
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph(graph)
