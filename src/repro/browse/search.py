"""Schema-free browsing queries (section 1.3).

The tutorial motivates semistructured query languages with three questions
that "cannot be answered in any generic fashion by standard relational or
object-oriented query languages":

* Where in the database is the string ``"Casablanca"`` to be found?
* Are there integers in the database greater than 2^16?
* What objects in the database have an attribute name that starts with
  ``"act"``?

Each query has a *scan* implementation (single pass over the reachable
graph -- always available) and an *indexed* implementation driven by
:class:`~repro.index.GraphIndexes`; experiment E1 measures the gap.  All
three return :class:`Finding` records that include a shortest label path
from the root, because "where is it" is only answered by a path the user
can follow.

Browsing is a *scan*, so over an :class:`~repro.storage.external.
ExternalGraph` it materializes every external region it walks into.  When
the wrapper runs in partial mode, regions whose fetch ultimately failed
contribute no edges, the scan proceeds over the rest, and the
``*_partial`` variants attach the graph's :class:`~repro.resilience.
Completeness` report so callers can tell an exact answer from a lower
bound.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

from ..core.frozen import FrozenGraph
from ..core.graph import Edge, Graph
from ..core.labels import Label, string
from ..index import GraphIndexes
from ..obs import QueryProfile
from ..resilience import PartialResult, completeness_of

__all__ = [
    "Finding",
    "find_value",
    "find_value_partial",
    "find_value_profiled",
    "find_integers_greater_than",
    "find_integers_greater_than_partial",
    "find_integers_greater_than_profiled",
    "find_attribute_names",
    "find_attribute_names_partial",
    "find_attribute_names_profiled",
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


def _frozen_label_scan(fg: FrozenGraph, keep) -> list[Edge]:
    """Scan a frozen graph by *distinct label*, then by edge.

    The predicate runs once per interned label instead of once per edge
    -- the win is largest for ``fnmatch``-style predicates on datasets
    whose label vocabulary is much smaller than their edge count.
    Matching edges come out in CSR (per-node insertion) order, filtered
    to the root-reachable region exactly like the plain scan.
    """
    keep_lids = {lid for lid, lab in enumerate(fg.labels_seq) if keep(lab)}
    if not keep_lids:
        return []
    reach = fg.reachable()
    srcs, targets, labels_seq = fg.srcs, fg.targets, fg.labels_seq
    return [
        Edge(srcs[i], labels_seq[lid], targets[i])
        for i, lid in enumerate(fg.label_ids)
        if lid in keep_lids and srcs[i] in reach
    ]


def _attach_paths(graph: Graph, edges: list[Edge]) -> list[Finding]:
    sources = {e.src for e in edges}
    if isinstance(graph, FrozenGraph):
        paths = {src: _frozen_path(graph, src) for src in sources}
    else:
        paths = _shortest_paths_to_nodes(graph, sources)
    findings = [Finding(e, paths.get(e.src, ())) for e in edges]
    findings.sort(key=lambda f: (len(f.path), f.edge.src, f.edge.dst))
    return findings


def find_value(
    graph: Graph, value: "str | int | float | bool", indexes: GraphIndexes | None = None
) -> list[Finding]:
    """Where in the database is this value?  (First browsing query.)

    Matches base-data labels equal to ``value``; strings only match string
    labels (never symbols -- attribute names are a different question).
    """
    from ..core.labels import label_of

    target = string(value) if isinstance(value, str) else label_of(value)
    if indexes is not None:
        edges = list(indexes.value.find_exact(target))
    elif isinstance(graph, FrozenGraph):
        # the interned label space answers an exact-value probe directly
        tree = _bfs_tree(graph)
        edges = [e for e in graph.edges_with_label(target) if e.src in tree]
    else:
        edges = [
            e
            for n in graph.reachable()
            for e in graph.edges_from(n)
            if e.label == target
        ]
    return _attach_paths(graph, edges)


def find_integers_greater_than(
    graph: Graph, bound: int, indexes: GraphIndexes | None = None
) -> list[Finding]:
    """Are there integers in the database greater than ``bound``?

    (The paper's example bound is 2^16.)  Only *int* labels are reported;
    reals are a different kind in the tagged union.
    """
    if indexes is not None:
        edges = [
            e for e in indexes.value.numbers_greater_than(bound) if e.label.is_int
        ]
    elif isinstance(graph, FrozenGraph):
        edges = _frozen_label_scan(
            graph, lambda lab: lab.is_int and lab.value > bound
        )
    else:
        edges = [
            e
            for n in graph.reachable()
            for e in graph.edges_from(n)
            if e.label.is_int and e.label.value > bound
        ]
    return _attach_paths(graph, edges)


def find_attribute_names(
    graph: Graph, pattern: str, indexes: GraphIndexes | None = None
) -> list[Finding]:
    """What objects have an attribute name matching ``pattern``?

    ``pattern`` uses ``%`` wildcards; the paper's example is ``act%``.
    Returns one finding per matching *edge* (the object is the edge's
    source; its path locates it).
    """
    glob = pattern.replace("%", "*")
    if indexes is not None:
        labels = indexes.label.symbols_matching(pattern)
        edges = [e for lab in labels for e in indexes.label.edges_with_label(lab)]
    elif isinstance(graph, FrozenGraph):
        edges = _frozen_label_scan(
            graph,
            lambda lab: lab.is_symbol and fnmatch.fnmatchcase(str(lab.value), glob),
        )
    else:
        edges = [
            e
            for n in graph.reachable()
            for e in graph.edges_from(n)
            if e.label.is_symbol and fnmatch.fnmatchcase(str(e.label.value), glob)
        ]
    return _attach_paths(graph, edges)


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


# -- partial-result variants (the resilience contract) -------------------------


def _scan_profiled(graph: Graph, keep, profile: QueryProfile) -> list[Edge]:
    """One accounted pass over the reachable graph.

    The loop mirrors the plain scans' comprehension, with two integer
    adds per *node* (not per edge) so the instrumented scan stays inside
    the overhead budget of ``benchmarks/bench_obs_overhead.py``.
    """
    nodes = 0
    scanned = 0
    edges: list[Edge] = []
    append = edges.append
    edges_from = graph.edges_from
    for n in graph.reachable():
        nodes += 1
        out = edges_from(n)
        scanned += len(out)
        for e in out:
            if keep(e.label):
                append(e)
    profile.nodes_visited += nodes
    profile.edges_expanded += scanned
    return edges


def _indexed_profiled(indexes: GraphIndexes, run, profile: QueryProfile) -> list[Edge]:
    """Run an index-backed lookup, capturing the hit/miss delta it caused."""
    hits_before = indexes.total_hits
    misses_before = indexes.total_misses
    edges = run()
    profile.index_hits += indexes.total_hits - hits_before
    profile.index_misses += indexes.total_misses - misses_before
    return edges


def find_value_profiled(
    graph: Graph, value: "str | int | float | bool", indexes: GraphIndexes | None = None
) -> tuple[list[Finding], QueryProfile]:
    """:func:`find_value` plus a :class:`~repro.obs.QueryProfile`.

    The scan path reports nodes visited and edges scanned; the indexed
    path reports the index hit/miss delta the lookup caused instead.
    """
    from ..core.labels import label_of

    target = string(value) if isinstance(value, str) else label_of(value)
    profile = QueryProfile(engine="browse", query=f"find_value({value!r})")
    if indexes is not None:
        edges = _indexed_profiled(
            indexes, lambda: list(indexes.value.find_exact(target)), profile
        )
    else:
        edges = _scan_profiled(graph, target.__eq__, profile)
    findings = _attach_paths(graph, edges)
    profile.results = len(findings)
    return findings, profile


def find_integers_greater_than_profiled(
    graph: Graph, bound: int, indexes: GraphIndexes | None = None
) -> tuple[list[Finding], QueryProfile]:
    """:func:`find_integers_greater_than` plus its query profile."""
    profile = QueryProfile(engine="browse", query=f"ints_greater_than({bound})")
    if indexes is not None:
        edges = _indexed_profiled(
            indexes,
            lambda: [
                e for e in indexes.value.numbers_greater_than(bound) if e.label.is_int
            ],
            profile,
        )
    else:
        edges = _scan_profiled(
            graph, lambda lab: lab.is_int and lab.value > bound, profile
        )
    findings = _attach_paths(graph, edges)
    profile.results = len(findings)
    return findings, profile


def find_attribute_names_profiled(
    graph: Graph, pattern: str, indexes: GraphIndexes | None = None
) -> tuple[list[Finding], QueryProfile]:
    """:func:`find_attribute_names` plus its query profile."""
    glob = pattern.replace("%", "*")
    profile = QueryProfile(engine="browse", query=f"attribute_names({pattern!r})")
    if indexes is not None:

        def run() -> list[Edge]:
            labels = indexes.label.symbols_matching(pattern)
            return [e for lab in labels for e in indexes.label.edges_with_label(lab)]

        edges = _indexed_profiled(indexes, run, profile)
    else:
        edges = _scan_profiled(
            graph,
            lambda lab: lab.is_symbol and fnmatch.fnmatchcase(str(lab.value), glob),
            profile,
        )
    findings = _attach_paths(graph, edges)
    profile.results = len(findings)
    return findings, profile


def find_value_partial(
    graph: Graph, value: "str | int | float | bool", indexes: GraphIndexes | None = None
) -> "PartialResult[list[Finding]]":
    """:func:`find_value` plus the graph's completeness report.

    Over a degradable graph the findings are a sound lower bound: lost
    regions can only hide hits.
    """
    return PartialResult(find_value(graph, value, indexes), completeness_of(graph))


def find_integers_greater_than_partial(
    graph: Graph, bound: int, indexes: GraphIndexes | None = None
) -> "PartialResult[list[Finding]]":
    """:func:`find_integers_greater_than` plus the completeness report."""
    return PartialResult(
        find_integers_greater_than(graph, bound, indexes), completeness_of(graph)
    )


def find_attribute_names_partial(
    graph: Graph, pattern: str, indexes: GraphIndexes | None = None
) -> "PartialResult[list[Finding]]":
    """:func:`find_attribute_names` plus the completeness report."""
    return PartialResult(
        find_attribute_names(graph, pattern, indexes), completeness_of(graph)
    )
