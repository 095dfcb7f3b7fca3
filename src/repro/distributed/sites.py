"""Partitioning a graph into distributed sites.

Section 4: "in [35] it is shown how an analysis of the query, combined with
some segmentation of the graph into local 'sites', can be used to decompose
a query into independent, parallel sub-queries" (Suciu, VLDB '96).

A :class:`DistributedGraph` assigns every node to exactly one site.  Edges
whose endpoints live on different sites are *cross edges*: following one
costs a message in the decomposed evaluation, and the *input nodes* of a
site (targets of cross edges, plus the root's site entry) are where
sub-queries start.  Two partitioning strategies are provided:

* ``hash``  -- round-robin by node id: simple, and adversarial for
  locality (many cross edges), the worst case for decomposition;
* ``bfs``   -- contiguous BFS blocks: the locality a real web-site
  segmentation would have, few cross edges.

The richer strategies of :mod:`~repro.distributed.partition` (``label``,
``greedy``) are also accepted by name; they partition the frozen snapshot
and translate positions back to node ids, so the simulation runs over the
same assignments :func:`~repro.distributed.partition.build_partition`
reports balance and cut size for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.frozen import FrozenGraph
from ..core.graph import Edge, Graph

__all__ = ["DistributedGraph", "partition_graph"]


@dataclass
class DistributedGraph:
    """A graph plus a node -> site assignment."""

    graph: Graph
    site_of: dict[int, int]
    num_sites: int
    #: per site: nodes assigned to it
    members: list[set[int]] = field(default_factory=list)
    _frozen: "FrozenGraph | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            self.members = [set() for _ in range(self.num_sites)]
            for node, site in self.site_of.items():
                self.members[site].add(node)

    def frozen(self) -> FrozenGraph:
        """A cached CSR snapshot of the underlying graph.

        The site assignment and the snapshot both describe the graph as
        it stood at partition time -- mutating the graph invalidates the
        partition itself and requires re-partitioning -- so caching the
        snapshot on the partition is safe, and lets every decomposed
        query over one partition share the frozen fast path.
        """
        if self._frozen is None:
            self._frozen = self.graph.freeze()
        return self._frozen

    def cross_edges(self) -> list[Edge]:
        """Edges that leave their source's site (each costs a message)."""
        return [
            e
            for n in self.graph.reachable()
            for e in self.graph.edges_from(n)
            if self.site_of[e.src] != self.site_of[e.dst]
        ]

    def input_nodes(self, site: int) -> set[int]:
        """Targets of cross edges into ``site`` (plus the root if local)."""
        inputs = {
            e.dst
            for e in self.cross_edges()
            if self.site_of[e.dst] == site
        }
        if self.site_of[self.graph.root] == site:
            inputs.add(self.graph.root)
        return inputs

    def without_sites(self, dead: "set[int] | frozenset[int]") -> Graph:
        """The graph as seen when the given sites are unreachable.

        Nodes on dead sites keep their identity (their *existence* is
        known to whoever holds an edge pointing at them) but lose all
        outgoing edges: nothing beyond a dead site can be traversed.
        This is the reference semantics ("oracle") for partial-result
        evaluation under site failure -- a resilient evaluation with
        sites ``dead`` permanently down must return exactly the answer a
        centralized evaluation returns over ``without_sites(dead)``.
        """
        for site in dead:
            if not 0 <= site < self.num_sites:
                raise ValueError(f"no such site {site}")
        g = Graph()
        mapping: dict[int, int] = {}
        reach = self.graph.reachable()
        for node in sorted(reach):
            mapping[node] = g.new_node()
        for node in sorted(reach):
            if self.site_of[node] in dead:
                continue
            for edge in self.graph.edges_from(node):
                g.add_edge(mapping[node], edge.label, mapping[edge.dst])
        g.set_root(mapping[self.graph.root])
        return g

    def locality(self) -> float:
        """Fraction of reachable edges that stay within one site."""
        total = 0
        local = 0
        for n in self.graph.reachable():
            for e in self.graph.edges_from(n):
                total += 1
                if self.site_of[e.src] == self.site_of[e.dst]:
                    local += 1
        return local / total if total else 1.0


def partition_graph(
    graph: Graph, num_sites: int, strategy: str = "bfs"
) -> DistributedGraph:
    """Assign every reachable node to one of ``num_sites`` sites."""
    if num_sites < 1:
        raise ValueError("need at least one site")
    reach = graph.reachable()
    site_of: dict[int, int] = {}
    if strategy == "hash":
        for i, node in enumerate(sorted(reach)):
            site_of[node] = i % num_sites
    elif strategy == "bfs":
        order: list[int] = []
        seen = {graph.root}
        queue = deque([graph.root])
        while queue:
            node = queue.popleft()
            order.append(node)
            for edge in graph.edges_from(node):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)
        block = max(1, (len(order) + num_sites - 1) // num_sites)
        for i, node in enumerate(order):
            site_of[node] = min(i // block, num_sites - 1)
    else:
        from .partition import PARTITION_STRATEGIES, build_partition

        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown partition strategy {strategy!r}")
        fg = graph.freeze()
        part = build_partition(fg, num_sites, strategy)
        # the snapshot covers every node; keep the assignment scoped to
        # the reachable set like the in-place strategies above
        for pos, node in enumerate(fg.node_ids):
            if node in reach:
                site_of[node] = part.site_of[pos]
        dist = DistributedGraph(graph, site_of, num_sites)
        dist._frozen = fg
        return dist
    return DistributedGraph(graph, site_of, num_sites)
