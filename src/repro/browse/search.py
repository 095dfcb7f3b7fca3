"""Schema-free browsing queries (section 1.3).

The tutorial motivates semistructured query languages with three questions
that "cannot be answered in any generic fashion by standard relational or
object-oriented query languages":

* Where in the database is the string ``"Casablanca"`` to be found?
* Are there integers in the database greater than 2^16?
* What objects in the database have an attribute name that starts with
  ``"act"``?

Each query has a *scan* implementation (single pass over the reachable
graph -- always available), an *indexed* implementation driven by
:class:`~repro.index.GraphIndexes` (experiment E1 measures the gap), and
over a :class:`~repro.core.frozen.FrozenGraph` a *probe* of the
snapshot's :class:`~repro.index.probes.ProbeIndex`: the matching labels
come from the interned label table (an exact lookup, a bisect of the
value table, a filter of the distinct symbols) and their edges from the
per-label edge lists.  All three return :class:`Finding` records that
include a shortest label path from the root, because "where is it" is
only answered by a path the user can follow.

**Which shortest path.**  The plain layout spells the path of forward
BFS first discovery: the root's edges in insertion order, then each
discovered node's in turn.  A snapshot spells it without walking the
graph: for each hit's source, a reverse BFS over the probe index's
in-edges marks every node's distance to the source until it reaches the
root, and the path then steps forward from the root along the lowest
slot (position in the node's block, i.e. insertion order) whose target
is one level closer.  That is the lexicographically least slot sequence
among the shortest paths -- and so is first discovery.  By induction on
the level: forward BFS dequeues level ``d - 1`` in the order of its
nodes' least sequences; a node at level ``d`` is discovered from the
first dequeued predecessor, along that predecessor's lowest slot to it,
so its tree path is the least predecessor sequence plus the least slot,
which is its own least sequence -- and level ``d`` is enqueued in that
order.  The two layouts therefore return the same path strings.  The
reverse walk also proves the source reachable; one that never meets the
root is not reported, as the scan never sees it.

Handed a ``profile`` (:class:`~repro.obs.QueryProfile`), a query adds
what the route that answered it did: an indexed lookup the index
hit/miss delta it caused, a scan the nodes it covered and their
out-edges -- on a snapshot ``len(reachable)`` and
``total_out_degree(reachable)``, the numbers an edge-by-edge scan
produces; only a profiled probe reads the snapshot's reachable set.

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
from typing import Callable, Iterable

from ..core.frozen import FrozenGraph
from ..core.graph import Edge, Graph, GraphError
from ..core.labels import Label, string
from ..index import GraphIndexes
from ..index.probes import ProbeIndex, probes_for
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


def _scan(graph: Graph, keep, profile: "QueryProfile | None") -> list[Edge]:
    """The reachable edges whose label passes ``keep`` -- the index-free route."""
    scanned = [graph.edges_from(n) for n in graph.reachable()]
    if profile is not None:
        profile.nodes_visited += len(scanned)
        profile.edges_expanded += sum(map(len, scanned))
    return [e for out in scanned for e in out if keep(e.label)]


def _probe(fg: FrozenGraph, lids: Iterable[int], profile: "QueryProfile | None") -> list[Finding]:
    """The reachable edges carrying label ids ``lids``, found and located
    through the probe index -- the snapshot route (module docstring)."""
    if not fg.has_root:
        raise GraphError("graph has no root")
    probes = probes_for(fg)
    targets, label_ids, labels_seq = fg.targets, fg.label_ids, fg.labels_seq
    # in insertion order, as the scan meets them
    hits = sorted(hit for lid in lids for hit in probes.labeled(lid))
    paths = probes.root_paths({src for _, src in hits})
    findings = [
        Finding(Edge(src, labels_seq[label_ids[i]], targets[i]), paths[src])
        for i, src in hits
        if paths[src] is not None
    ]
    if profile is not None:
        reach = fg.reachable()
        profile.nodes_visited += len(reach)
        profile.edges_expanded += fg.total_out_degree(reach)
    return findings


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
        paths = probes_for(graph).root_paths(sources)
    else:
        paths = _shortest_paths_to_nodes(graph, sources)
    return [Finding(e, paths.get(e.src) or ()) for e in edges]


def _locate(
    graph: Graph,
    indexes: "GraphIndexes | None",
    profile: "QueryProfile | None",
    indexed: Callable[[], list[Edge]],
    keep: Callable[[Label], bool],
    lids: Callable[[FrozenGraph, ProbeIndex], Iterable[int]],
) -> list[Finding]:
    """One browsing query by the route its inputs allow: the index
    lookup ``indexed``, the snapshot probe of the label ids ``lids``, or
    the scan keeping the labels that pass ``keep``."""
    if indexes is not None:
        return _attach_paths(graph, _indexed(indexes, indexed, profile))
    if isinstance(graph, FrozenGraph):
        return _probe(graph, lids(graph, probes_for(graph)), profile)
    return _attach_paths(graph, _scan(graph, keep, profile))


def _findings(
    findings: list[Finding], profile: "QueryProfile | None", name: str, arg
) -> list[Finding]:
    """Order the findings; a profile is named ``name(arg)`` and gets the count."""
    findings.sort(key=lambda f: (len(f.path), f.edge.src, f.edge.dst))
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
    findings = _locate(
        graph,
        indexes,
        profile,
        lambda: list(indexes.value.find_exact(target)),
        target.__eq__,
        lambda fg, _: [fg.label_index[target]] if target in fg.label_index else [],
    )
    return _findings(findings, profile, "find_value", value)


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
    findings = _locate(
        graph,
        indexes,
        profile,
        lambda: [e for e in indexes.value.numbers_greater_than(bound) if e.label.is_int],
        lambda lab: lab.is_int and lab.value > bound,
        lambda fg, probes: [
            lid for lid in probes.values.numbers.where(">", bound) if fg.labels_seq[lid].is_int
        ],
    )
    return _findings(findings, profile, "ints_greater_than", bound)


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
    findings = _locate(
        graph,
        indexes,
        profile,
        lambda: [
            e
            for lab in indexes.label.symbols_matching(pattern)
            for e in indexes.label.edges_with_label(lab)
        ],
        lambda lab: lab.is_symbol and fnmatch.fnmatchcase(str(lab.value), glob),
        lambda fg, probes: [
            lid
            for lid in probes.values.symbols
            if fnmatch.fnmatchcase(str(fg.labels_seq[lid].value), glob)
        ],
    )
    return _findings(findings, profile, "attribute_names", pattern)


def where_is(
    graph: Graph,
    value: "str | int | float | bool",
    indexes: GraphIndexes | None = None,
) -> list[str]:
    """Human-oriented wrapper: dotted path strings for :func:`find_value`.

    ``indexes`` routes the probe through the value index of a
    :class:`~repro.index.GraphIndexes`.
    """
    return [str(f) for f in find_value(graph, value, indexes)]
