"""The edge-labeled rooted graph: the unifying data model of the paper.

Section 2 of Buneman (PODS '97): *"The unifying idea in semi-structured data
is the representation of data as some kind of graph-like or tree-like
structure.  Although we shall allow cycles in the data, we shall generally
refer to these graphs as trees."*  The model is::

    type label = int | string | ... | symbol
    type tree  = set(label * tree)

A :class:`Graph` is a directed graph whose edges carry :class:`~repro.core.
labels.Label` values, together with a distinguished *root* from which all
queries traverse forward ("we are concerned with what is accessible from a
given root by forward traversal of the edges").  The edges out of a node are
conceptually an unordered *set*; the implementation stores them in insertion
order for reproducible output, but no public operation depends on that
order and graph equality is bisimulation (:mod:`repro.core.bisim`), never
edge-list equality.

Node identifiers are plain integers, local to one graph.  They correspond to
the paper's "node identifiers [that] may only be used as temporary node
labels": they are not observable in query results except via equality, and
they never survive serialization boundaries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .labels import Label, label_of, sym

__all__ = ["Edge", "Graph", "GraphError"]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations (unknown nodes etc.)."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A single labeled edge ``src --label--> dst``."""

    src: int
    label: Label
    dst: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}-{self.label!r}->{self.dst}"


class Graph:
    """A rooted, edge-labeled, possibly cyclic directed graph.

    The class doubles as the *horizontal algebra* of section 3: the
    constructors :meth:`empty`, :meth:`singleton` and :meth:`union` are the
    three tree constructors ``{}``, ``{l: t}`` and ``t1 U t2`` of UnQL, and
    they are all that is needed (together with structural recursion in
    :mod:`repro.unql.sstruct`) to express the query languages of the paper.
    """

    __slots__ = ("_adj", "_root", "_next_id", "_version")

    def __init__(self) -> None:
        self._adj: dict[int, list[Edge]] = {}
        self._root: int | None = None
        self._next_id = 0
        self._version = 0

    @property
    def version(self) -> int:
        """A counter bumped by every structural mutation.

        Snapshots and indexes record the version they were built against
        so staleness is detectable (:class:`~repro.index.StaleIndexError`)
        instead of silently answering for an older graph.  Code that
        mutates ``_adj`` directly (surgery helpers, lazy materialization)
        bypasses the counter, same as it always bypassed index rebuilds.
        """
        return self._version

    # -- construction ---------------------------------------------------------

    def new_node(self) -> int:
        """Allocate a fresh node and return its id."""
        node = self._next_id
        self._next_id += 1
        self._adj[node] = []
        self._version += 1
        return node

    def ensure_node(self, node: int) -> int:
        """Materialize a node under a caller-chosen id (idempotent).

        ``new_node`` allocates ids; ``ensure_node`` *replays* them: the
        write-ahead log records the id a writer allocated, and recovery
        must reproduce it exactly so edges in later deltas resolve.  The
        allocator is advanced past ``node`` so fresh allocations never
        collide with replayed ids.
        """
        if node < 0:
            raise GraphError(f"node ids are non-negative, got {node}")
        if node not in self._adj:
            self._adj[node] = []
            self._next_id = max(self._next_id, node + 1)
            self._version += 1
        return node

    def add_edge(self, src: int, label: Label | str | int | float | bool, dst: int) -> Edge:
        """Add ``src --label--> dst``.

        A plain ``str`` is interpreted as a *symbol* (the common case when
        building data by hand: attribute names); to attach string *data*
        use an explicit :func:`repro.core.labels.string` label.  Other raw
        Python scalars become base-data labels.
        """
        if src not in self._adj:
            raise GraphError(f"unknown source node {src}")
        if dst not in self._adj:
            raise GraphError(f"unknown destination node {dst}")
        if isinstance(label, str):
            lab = sym(label)
        else:
            lab = label_of(label)
        edge = Edge(src, lab, dst)
        self._adj[src].append(edge)
        self._version += 1
        return edge

    def set_root(self, node: int) -> None:
        if node not in self._adj:
            raise GraphError(f"cannot root graph at unknown node {node}")
        self._root = node
        self._version += 1

    @property
    def root(self) -> int:
        if self._root is None:
            raise GraphError("graph has no root")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root is not None

    # -- inspection -----------------------------------------------------------

    def nodes(self) -> Iterator[int]:
        """All node ids, in allocation order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """All edges, grouped by source node."""
        for out in self._adj.values():
            yield from out

    def edges_from(self, node: int) -> tuple[Edge, ...]:
        """The outgoing edges of ``node`` (the node's label/tree pair set)."""
        try:
            return tuple(self._adj[node])
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def out_degree(self, node: int) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def total_out_degree(self, nodes: Iterable[int]) -> int:
        """Sum of out-degrees over ``nodes`` (each counted as given).

        One bulk call instead of ``out_degree`` per node: the profiled
        query paths derive their edge counts from visited-node sets
        after evaluation, and this keeps that post-pass a small fraction
        of the traversal it measures.
        """
        return sum(map(len, map(self._adj.__getitem__, nodes)))

    def has_node(self, node: int) -> bool:
        return node in self._adj

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(out) for out in self._adj.values())

    def successors(self, node: int, label: Label | None = None) -> Iterator[int]:
        """Targets of outgoing edges, optionally restricted to one label."""
        for edge in self.edges_from(node):
            if label is None or edge.label == label:
                yield edge.dst

    def labels_from(self, node: int) -> set[Label]:
        """The set of distinct labels on edges out of ``node``."""
        return {edge.label for edge in self.edges_from(node)}

    def all_labels(self) -> set[Label]:
        """Every distinct label appearing anywhere in the graph."""
        return {edge.label for edge in self.edges()}

    # -- traversal ------------------------------------------------------------

    def reachable(self, start: int | None = None) -> set[int]:
        """Nodes reachable from ``start`` (default: root) by forward edges."""
        origin = self.root if start is None else start
        if origin not in self._adj:
            raise GraphError(f"unknown node {origin}")
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for edge in self._adj[node]:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)
        return seen

    def bfs_edges(self, start: int | None = None) -> Iterator[Edge]:
        """Edges in BFS discovery order from ``start`` (default: root).

        Every edge whose source is reachable is yielded exactly once,
        including back/cross edges into already-visited nodes.
        """
        origin = self.root if start is None else start
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for edge in self._adj[node]:
                yield edge
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)

    def is_tree(self) -> bool:
        """True iff every reachable node has exactly one incoming edge
        (and the root has none): the graph really is a tree, not just
        called one."""
        indegree: dict[int, int] = {}
        for node in self.reachable():
            for edge in self._adj[node]:
                indegree[edge.dst] = indegree.get(edge.dst, 0) + 1
        if indegree.get(self.root, 0) != 0:
            return False
        return all(indegree.get(n, 0) == 1 for n in self.reachable() if n != self.root)

    def has_cycle(self) -> bool:
        """True iff a directed cycle is reachable from the root."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[int, int] = {}
        stack: list[tuple[int, Iterator[Edge]]] = [(self.root, iter(self._adj[self.root]))]
        color[self.root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for edge in it:
                c = color.get(edge.dst, WHITE)
                if c == GREY:
                    return True
                if c == WHITE:
                    color[edge.dst] = GREY
                    stack.append((edge.dst, iter(self._adj[edge.dst])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
        return False

    # -- the horizontal constructors (UnQL: {}, {l:t}, t1 U t2) ---------------

    @classmethod
    def empty(cls) -> "Graph":
        """The empty tree ``{}``: a single root with no edges."""
        g = cls()
        g.set_root(g.new_node())
        return g

    @classmethod
    def singleton(cls, label: Label | str | int | float | bool, child: "Graph | None" = None) -> "Graph":
        """The singleton tree ``{label: child}`` (child defaults to ``{}``)."""
        g = cls()
        root = g.new_node()
        g.set_root(root)
        if child is None:
            leaf = g.new_node()
            g.add_edge(root, label, leaf)
        else:
            mapping = g._absorb(child)
            g.add_edge(root, label, mapping[child.root])
        return g

    def union(self, other: "Graph") -> "Graph":
        """The tree union ``self U other``.

        Per section 2 this is the operation the edge-labeled model makes
        easy (and the node-labeled variant makes hard): a fresh root whose
        outgoing edges are the outgoing edges of both operands' roots.
        Both operands are copied; neither is mutated.
        """
        g = Graph()
        root = g.new_node()
        g.set_root(root)
        for operand in (self, other):
            mapping = g._absorb(operand)
            for edge in operand.edges_from(operand.root):
                g.add_edge(root, edge.label, mapping[edge.dst])
        return g

    # -- copying and surgery ----------------------------------------------------

    def _absorb(self, other: "Graph", start: int | None = None) -> dict[int, int]:
        """Copy all nodes/edges reachable from ``start`` in ``other`` into ``self``.

        ``start`` defaults to ``other``'s root.  Returns the node-id mapping
        ``other -> self``.  Used by every operation that combines graphs
        without sharing mutable state; it reads ``other`` through the read
        API only, so a :class:`~repro.core.frozen.FrozenGraph` works too.
        """
        mapping: dict[int, int] = {}
        reach = sorted(other.reachable(start))
        for node in reach:
            mapping[node] = self.new_node()
        for node in reach:
            src = mapping[node]
            self._adj[src] = [
                Edge(src, edge.label, mapping[edge.dst]) for edge in other.edges_from(node)
            ]
        self._version += 1
        return mapping

    def copy(self) -> "Graph":
        """An isomorphic copy of the reachable part of the graph."""
        g = Graph()
        mapping = g._absorb(self)
        g.set_root(mapping[self.root])
        return g

    def subgraph(self, node: int) -> "Graph":
        """The graph re-rooted at ``node`` (restricted to what it reaches)."""
        g = Graph()
        g.set_root(g._absorb(self, node)[node])
        return g

    def garbage_collect(self) -> "Graph":
        """Drop everything not reachable from the root; returns a new graph."""
        return self.copy()

    def freeze(self):
        """An immutable CSR snapshot for the fast query kernel.

        Returns a :class:`~repro.core.frozen.FrozenGraph`: interned
        label ids, flat offset/target arrays cut into per-label runs.
        Same read API, same node ids, no write API.  Freeze once and
        query many times; see docs/PERFORMANCE.md for the trade-off.
        """
        from .frozen import FrozenGraph

        return FrozenGraph(self)

    def map_labels(self, fn: Callable[[Label], Label]) -> "Graph":
        """A copy with every edge label rewritten through ``fn``.

        This is the "relabeling" restructuring primitive of section 3 in
        its simplest form (the full, condition-driven form lives in
        :mod:`repro.unql.restructure`).
        """
        g = self.copy()
        for node, out in g._adj.items():
            g._adj[node] = [Edge(e.src, fn(e.label), e.dst) for e in out]
        g._version += 1
        return g

    def unfold(self, depth: int) -> "Graph":
        """The finite tree unfolding of the graph to ``depth`` levels.

        The unfolding is the reference semantics for cycle-safe structural
        recursion: a graph and its unfolding are bisimilar, and the tests
        use this to validate :mod:`repro.unql.sstruct` on cyclic input.
        """
        g = Graph()
        root = g.new_node()
        g.set_root(root)
        stack = [(self.root, root, depth)]
        while stack:
            src, out_src, d = stack.pop()
            if d <= 0:
                continue
            for edge in self._adj[src]:
                child = g.new_node()
                g.add_edge(out_src, edge.label, child)
                stack.append((edge.dst, child, d - 1))
        return g

    # -- conveniences -----------------------------------------------------------

    def degree_histogram(self) -> Mapping[int, int]:
        """out-degree -> how many reachable nodes have it (storage sizing)."""
        hist: dict[int, int] = {}
        for node in self.reachable():
            d = len(self._adj[node])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        root = self._root if self._root is not None else "?"
        return f"<Graph root={root} nodes={self.num_nodes} edges={self.num_edges}>"


def disjoint_union(graphs: Iterable[Graph]) -> tuple[Graph, list[dict[int, int]]]:
    """Copy several graphs side by side into one arena.

    Returns the combined (rootless) graph plus one node-id mapping per
    input.  Bisimulation checking across two graphs works on this arena.
    """
    arena = Graph()
    mappings = [arena._absorb(g) for g in graphs]
    return arena, mappings


def to_dot(graph: Graph, name: str = "semistructured") -> str:
    """Render a graph in Graphviz DOT syntax (Figure-1-style pictures).

    Symbols become plain edge labels; base data is quoted with its type
    implied by formatting, matching how the paper's figure draws both
    kinds of label on edges.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle, label=\"\"];"]
    reach = sorted(graph.reachable())
    for node in reach:
        shape = "doublecircle" if node == graph.root else "circle"
        lines.append(f'  n{node} [shape={shape}];')
    for node in reach:
        for edge in graph.edges_from(node):
            if edge.label.is_symbol:
                text = str(edge.label.value)
            else:
                text = repr(edge.label.value)
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{edge.src} -> n{edge.dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)
