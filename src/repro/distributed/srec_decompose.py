"""Decomposed structural recursion (section 4, the heart of [35]).

Suciu's VLDB '96 result is about *structural recursion*, not just path
queries: because the bulk semantics of :func:`repro.unql.sstruct.srec`
touches each input edge exactly once and independently, the template-
instantiation phase is embarrassingly parallel across sites -- each site
transforms its local edges with no communication at all, and only the
epsilon-elimination (gluing) phase needs the sites' outputs together.

:func:`distributed_srec` runs exactly that schedule over a
:class:`~repro.distributed.sites.DistributedGraph` and accounts the work:
per-site template work (parallel) plus the sequential gluing cost.  The
result is bisimilar to centralized :func:`~repro.unql.sstruct.srec`
(tested), and the speedup of the parallel phase approaches the site count
-- experiment E5b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..core.graph import Graph
from ..unql.sstruct import REC_MARKER, RecursionBody, SubtreeView
from .sites import DistributedGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .decompose import SiteRuntime

__all__ = ["SrecStats", "distributed_srec"]


@dataclass
class SrecStats:
    """Work accounting for one decomposed recursion."""

    per_site_edges: list[int] = field(default_factory=list)
    glue_edges: int = 0

    @property
    def parallel_work(self) -> int:
        """Edges transformed by the busiest site (the parallel makespan)."""
        return max(self.per_site_edges) if self.per_site_edges else 0

    @property
    def total_work(self) -> int:
        return sum(self.per_site_edges)

    @property
    def speedup(self) -> float:
        if not self.parallel_work:
            return 1.0
        return self.total_work / self.parallel_work


def distributed_srec(
    dist: DistributedGraph, body: RecursionBody, *, runtime: "SiteRuntime | None" = None
) -> tuple[Graph, SrecStats]:
    """Evaluate ``srec(body)`` with per-site parallel template phases.

    Phase 1 (parallel, no communication): every site instantiates the
    template for each of its local edges, producing output fragments that
    refer to the shared ``out(node)`` skeleton.
    Phase 2 (sequential): epsilon elimination over the union of all
    fragments -- the only step that sees data from more than one site.

    ``runtime`` (a :class:`~repro.distributed.decompose.SiteRuntime`)
    makes the run survive site failures: each site's (otherwise
    communication-free) template phase starts with one guarded dispatch
    through its circuit breaker; a site that ultimately cannot be reached
    contributes no fragments -- its nodes remain as edgeless leaves in
    the output skeleton -- and the loss is in ``runtime.completeness()``.
    For edge-local bodies (the decomposition assumption of [35]) the
    degraded output is bisimilar to centralized ``srec`` over
    ``dist.without_sites(dead)``.
    """
    graph = dist.graph
    stats = SrecStats()
    out = Graph()
    reach = graph.reachable()
    out_node = {node: out.new_node() for node in sorted(reach)}
    out.set_root(out_node[graph.root])
    eps: dict[int, list[int]] = {}

    def add_eps(src: int, dst: int) -> None:
        eps.setdefault(src, []).append(dst)

    for site in range(dist.num_sites):
        local = [
            edge
            for node in sorted(dist.members[site] & reach)
            for edge in graph.edges_from(node)
        ]
        if runtime is not None and local and not runtime.deliver(site, len(local)):
            # the site is unreachable: its edges transform nowhere, and the
            # loss is reported; its nodes survive as leaves of the skeleton
            stats.per_site_edges.append(0)
            continue
        for edge in local:
            template = body(edge.label, SubtreeView(graph, edge.dst))
            t_reach = template.reachable()
            mapping = {t: out.new_node() for t in sorted(t_reach)}
            for t_node in sorted(t_reach):
                for t_edge in template.edges_from(t_node):
                    if t_edge.label == REC_MARKER:
                        add_eps(mapping[t_node], out_node[edge.dst])
                    else:
                        out.add_edge(
                            mapping[t_node], t_edge.label, mapping[t_edge.dst]
                        )
            add_eps(out_node[edge.src], mapping[template.root])
        stats.per_site_edges.append(len(local))

    # phase 2: the shared gluing pass
    from ..unql.sstruct import _eliminate_epsilon

    glued = _eliminate_epsilon(out, eps)
    stats.glue_edges = glued.num_edges
    return glued, stats
