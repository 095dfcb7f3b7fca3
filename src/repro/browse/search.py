"""Schema-free browsing queries (section 1.3).

The tutorial motivates semistructured query languages with three questions
that "cannot be answered in any generic fashion by standard relational or
object-oriented query languages":

* Where in the database is the string ``"Casablanca"`` to be found?
* Are there integers in the database greater than 2^16?
* What objects in the database have an attribute name that starts with
  ``"act"``?

Each query has a *scan* implementation (single pass over the reachable
graph -- always available; over a :class:`~repro.core.frozen.FrozenGraph`
a probe of the interned label space) and an *indexed* implementation
driven by :class:`~repro.index.GraphIndexes`; experiment E1 measures the
gap.  All three return :class:`Finding` records that include a shortest
label path from the root, because "where is it" is only answered by a
path the user can follow.

Handed a ``profile`` (:class:`~repro.obs.QueryProfile`), a query adds
what the route that answered it did: an indexed lookup the index
hit/miss delta it caused, a scan the nodes it covered and their
out-edges -- on a snapshot ``len(reachable)`` and
``total_out_degree(reachable)``, the numbers an edge-by-edge scan
produces, without materializing an edge to count them.

Browsing is a *scan*, so over an :class:`~repro.storage.external.
ExternalGraph` it materializes every external region it walks into.  When
the wrapper runs in partial mode, regions whose fetch ultimately failed
contribute no edges and the scan proceeds over the rest; pair the answer
with :func:`~repro.resilience.completeness_of` the graph to tell an exact
answer from a lower bound.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from ..core.frozen import FrozenGraph
from ..core.graph import Edge, Graph
from ..core.labels import Label, string
from ..index import GraphIndexes
from ..obs import QueryProfile

__all__ = [
    "Finding",
    "find_value",
    "find_integers_greater_than",
    "find_attribute_names",
    "where_is",
]


@dataclass(frozen=True)
class Finding:
    """One browsing hit: the edge that matched and how to reach it."""

    edge: Edge
    path: tuple[Label, ...]

    def __str__(self) -> str:
        spelled = ".".join(str(lab) for lab in self.path + (self.edge.label,))
        return spelled or str(self.edge.label)


def _shortest_paths_to_nodes(graph: Graph, targets: set[int]) -> dict[int, tuple[Label, ...]]:
    """One BFS from the root giving a shortest label path to each target."""
    paths: dict[int, tuple[Label, ...]] = {graph.root: ()}
    pending = set(targets) - {graph.root}
    queue = [graph.root]
    while queue and pending:
        nxt: list[int] = []
        for node in queue:
            for edge in graph.edges_from(node):
                if edge.dst not in paths:
                    paths[edge.dst] = paths[node] + (edge.label,)
                    pending.discard(edge.dst)
                    nxt.append(edge.dst)
        queue = nxt
    return paths


def _bfs_tree(fg: FrozenGraph) -> dict[int, int]:
    """Reachable node -> the edge that first reaches it in a BFS (root: -1).

    Walked once per snapshot over the CSR arrays and kept in its
    extension slot: following the entries back to the root spells the
    same shortest label path :func:`_shortest_paths_to_nodes` would build
    (same level order, same first discovery), for just the nodes asked.
    """
    tree = fg._ext.get("bfs_tree")
    if tree is None:
        offsets, targets, index = fg.offsets, fg.targets, fg.index
        tree = fg._ext["bfs_tree"] = {fg.root: -1}
        queue = [fg.root]
        for node in queue:  # grows while iterated: first in, first out
            pos = node if index is None else index[node]
            for i in range(offsets[pos], offsets[pos + 1]):
                if targets[i] not in tree:
                    tree[targets[i]] = i
                    queue.append(targets[i])
    return tree


def _frozen_path(fg: FrozenGraph, node: int) -> tuple[Label, ...]:
    """The shortest label path from the root to ``node`` (empty if unreachable)."""
    tree = _bfs_tree(fg)
    labels: list[Label] = []
    edge = tree.get(node, -1)
    while edge >= 0:
        labels.append(fg.labels_seq[fg.label_ids[edge]])
        edge = tree[fg.srcs[edge]]
    return tuple(reversed(labels))


def _scan(
    graph: Graph, keep, profile: "QueryProfile | None", exact: "Label | None" = None
) -> list[Edge]:
    """The reachable edges whose label passes ``keep`` -- the index-free route.

    Over a frozen graph the predicate runs once per *distinct label*
    instead of once per edge -- the win is largest for ``fnmatch``-style
    predicates on datasets whose label vocabulary is much smaller than
    their edge count -- and an ``exact`` label is answered by the interned
    label space directly.  Matching edges come out in CSR (per-node
    insertion) order, filtered to the root-reachable region exactly like
    the plain scan, so what a profile is charged is the same on both
    layouts: every reachable node and all of its out-edges.
    """
    if isinstance(graph, FrozenGraph):
        reach = _bfs_tree(graph)
        if exact is not None:
            edges = [e for e in graph.edges_with_label(exact) if e.src in reach]
        else:
            labels_seq, srcs, targets = graph.labels_seq, graph.srcs, graph.targets
            keep_lids = {lid for lid, lab in enumerate(labels_seq) if keep(lab)}
            edges = []
            if keep_lids:
                edges = [
                    Edge(srcs[i], labels_seq[lid], targets[i])
                    for i, lid in enumerate(graph.label_ids)
                    if lid in keep_lids and srcs[i] in reach
                ]
        if profile is not None:
            profile.nodes_visited += len(reach)
            profile.edges_expanded += graph.total_out_degree(reach)
        return edges
    scanned = [graph.edges_from(n) for n in graph.reachable()]
    if profile is not None:
        profile.nodes_visited += len(scanned)
        profile.edges_expanded += sum(map(len, scanned))
    return [e for out in scanned for e in out if keep(e.label)]


def _indexed(indexes: GraphIndexes, run, profile: "QueryProfile | None") -> list[Edge]:
    """Run an index-backed lookup; a profile gets the hit/miss delta it caused."""
    if profile is None:
        return run()
    hits_before = indexes.total_hits
    misses_before = indexes.total_misses
    edges = run()
    profile.index_hits += indexes.total_hits - hits_before
    profile.index_misses += indexes.total_misses - misses_before
    return edges


def _attach_paths(graph: Graph, edges: list[Edge]) -> list[Finding]:
    sources = {e.src for e in edges}
    if isinstance(graph, FrozenGraph):
        paths = {src: _frozen_path(graph, src) for src in sources}
    else:
        paths = _shortest_paths_to_nodes(graph, sources)
    findings = [Finding(e, paths.get(e.src, ())) for e in edges]
    findings.sort(key=lambda f: (len(f.path), f.edge.src, f.edge.dst))
    return findings


def _findings(
    graph: Graph, edges: list[Edge], profile: "QueryProfile | None", name: str, arg
) -> list[Finding]:
    """Locate ``edges``; a profile is named ``name(arg)`` and gets the count."""
    findings = _attach_paths(graph, edges)
    if profile is not None:
        profile.stamp("browse", f"{name}({arg!r})")
        profile.results += len(findings)
    return findings


def find_value(
    graph: Graph,
    value: "str | int | float | bool",
    indexes: GraphIndexes | None = None,
    *,
    profile: "QueryProfile | None" = None,
) -> list[Finding]:
    """Where in the database is this value?  (First browsing query.)

    Matches base-data labels equal to ``value``; strings only match string
    labels (never symbols -- attribute names are a different question).
    """
    from ..core.labels import label_of

    target = string(value) if isinstance(value, str) else label_of(value)
    if indexes is not None:
        edges = _indexed(indexes, lambda: list(indexes.value.find_exact(target)), profile)
    else:
        edges = _scan(graph, target.__eq__, profile, exact=target)
    return _findings(graph, edges, profile, "find_value", value)


def find_integers_greater_than(
    graph: Graph,
    bound: int,
    indexes: GraphIndexes | None = None,
    *,
    profile: "QueryProfile | None" = None,
) -> list[Finding]:
    """Are there integers in the database greater than ``bound``?

    (The paper's example bound is 2^16.)  Only *int* labels are reported;
    reals are a different kind in the tagged union.
    """
    if indexes is not None:
        edges = _indexed(
            indexes,
            lambda: [e for e in indexes.value.numbers_greater_than(bound) if e.label.is_int],
            profile,
        )
    else:
        edges = _scan(graph, lambda lab: lab.is_int and lab.value > bound, profile)
    return _findings(graph, edges, profile, "ints_greater_than", bound)


def find_attribute_names(
    graph: Graph,
    pattern: str,
    indexes: GraphIndexes | None = None,
    *,
    profile: "QueryProfile | None" = None,
) -> list[Finding]:
    """What objects have an attribute name matching ``pattern``?

    ``pattern`` uses ``%`` wildcards; the paper's example is ``act%``.
    Returns one finding per matching *edge* (the object is the edge's
    source; its path locates it).
    """
    glob = pattern.replace("%", "*")
    if indexes is not None:
        edges = _indexed(
            indexes,
            lambda: [
                e
                for lab in indexes.label.symbols_matching(pattern)
                for e in indexes.label.edges_with_label(lab)
            ],
            profile,
        )
    else:
        edges = _scan(
            graph,
            lambda lab: lab.is_symbol and fnmatch.fnmatchcase(str(lab.value), glob),
            profile,
        )
    return _findings(graph, edges, profile, "attribute_names", pattern)


def where_is(
    graph: Graph,
    value: "str | int | float | bool",
    indexes: GraphIndexes | None = None,
) -> list[str]:
    """Human-oriented wrapper: dotted path strings for :func:`find_value`.

    ``indexes`` routes the probe through the value index (the planner's
    browse delegation passes its own :class:`~repro.index.GraphIndexes`).
    """
    return [str(f) for f in find_value(graph, value, indexes)]
