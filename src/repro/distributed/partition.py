"""Pluggable partitioning strategies with balance/cut-size accounting.

Section 4's decomposition scheme is agnostic about *how* the graph was
segmented into sites -- Suciu's analysis works for any node -> site map --
but the map's quality decides the message volume: every cross edge a
traversal follows costs one boundary configuration.  This module supplies
three strategies over a :class:`~repro.core.frozen.FrozenGraph` snapshot:

* ``hash``   -- position modulo ``num_sites``.  Perfectly balanced,
  locality-blind; the adversarial baseline every other strategy is
  measured against.
* ``label``  -- label-locality clustering: nodes are grouped by their
  dominant out-edge label and the groups are bin-packed onto sites
  largest-first.  This is the predicate-partitioning idiom (all ``cite``
  edges hang off nodes in one place); it wins when label usage is
  region-correlated, as in per-collection exports.
* ``greedy`` -- METIS-style streaming edge-cut minimization (linear
  deterministic greedy): nodes arrive in snapshot position order -- the
  order the crawl/load emitted them, where neighborhoods are contiguous
  -- and each is placed on the site holding most of its already-placed
  neighbors, damped by a fill factor so no site exceeds its capacity.
  One pass, no global matrix, and on clustered graphs (host-locality web
  crawls) the cut is a fraction of the hash cut -- the property the
  hypothesis suite pins.

Every strategy emits a :class:`Partition`: a flat ``pos -> site`` table
(an ``array('q')`` indexed by CSR position, like the CSR vectors
themselves) plus a :class:`PartitionStats` report of
balance and cut size, so benchmarks can correlate strategy choice with
message volume without re-deriving the accounting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import ceil
from typing import Callable

from ..core.frozen import FrozenGraph

__all__ = [
    "Partition",
    "PartitionStats",
    "PARTITION_STRATEGIES",
    "build_partition",
]


@dataclass(frozen=True)
class PartitionStats:
    """Balance and cut-size accounting for one partition.

    ``sizes`` counts nodes per site and ``edge_sizes`` counts owned
    edges per site (an edge is owned by its source's site, so the edge
    counts always sum to ``num_edges`` -- every edge is assigned exactly
    once).  ``cut_edges`` is the number of edges whose target lives on a
    different site; each one followed at query time becomes a message.
    """

    num_sites: int
    num_nodes: int
    num_edges: int
    cut_edges: int
    sizes: tuple[int, ...]
    edge_sizes: tuple[int, ...]

    @property
    def balance(self) -> float:
        """Largest site size over the ideal size (1.0 = perfect)."""
        if self.num_nodes == 0:
            return 1.0
        ideal = self.num_nodes / self.num_sites
        return max(self.sizes) / ideal

    @property
    def cut_fraction(self) -> float:
        """Fraction of edges that cross sites (0.0 = fully local)."""
        return self.cut_edges / self.num_edges if self.num_edges else 0.0

    @property
    def locality(self) -> float:
        """Fraction of edges that stay within one site."""
        return 1.0 - self.cut_fraction


@dataclass(frozen=True)
class Partition:
    """A ``pos -> site`` assignment over one frozen snapshot.

    ``site_of`` is indexed by CSR *position* (not node id), like the
    CSR vectors; :meth:`site_of_node` translates when callers hold node
    ids.
    """

    num_sites: int
    strategy: str
    site_of: array = field(repr=False)
    stats: PartitionStats

    def site_of_node(self, fg: FrozenGraph, node: int) -> int:
        return self.site_of[fg._pos(node)]

    def members(self) -> list[list[int]]:
        """Per site: the CSR positions assigned to it."""
        out: list[list[int]] = [[] for _ in range(self.num_sites)]
        for pos, site in enumerate(self.site_of):
            out[site].append(pos)
        return out


def _compute_stats(
    fg: FrozenGraph, site_of: array, num_sites: int
) -> PartitionStats:
    n = fg.num_nodes
    sizes = [0] * num_sites
    for site in site_of:
        sizes[site] += 1
    edge_sizes = [0] * num_sites
    cut = 0
    offsets, targets, index = fg.offsets, fg.targets, fg.index
    for pos in range(n):
        site = site_of[pos]
        begin, end = offsets[pos], offsets[pos + 1]
        edge_sizes[site] += end - begin
        for i in range(begin, end):
            dst = targets[i]
            dst_pos = dst if index is None else index[dst]
            if site_of[dst_pos] != site:
                cut += 1
    return PartitionStats(
        num_sites=num_sites,
        num_nodes=n,
        num_edges=fg.num_edges,
        cut_edges=cut,
        sizes=tuple(sizes),
        edge_sizes=tuple(edge_sizes),
    )


def _partition_hash(fg: FrozenGraph, num_sites: int) -> array:
    return array("q", (pos % num_sites for pos in range(fg.num_nodes)))


def _partition_label(fg: FrozenGraph, num_sites: int) -> array:
    """Group by dominant out-label, bin-pack groups largest-first."""
    offsets, label_ids = fg.offsets, fg.label_ids
    n = fg.num_nodes
    # dominant out-label per node (-1 for sinks): the label of most of
    # its out-edges, lowest label id winning ties for determinism
    groups: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    for pos in range(n):
        begin, end = offsets[pos], offsets[pos + 1]
        if begin == end:
            groups.setdefault(-1, []).append(pos)
            continue
        counts.clear()
        for i in range(begin, end):
            lid = label_ids[i]
            counts[lid] = counts.get(lid, 0) + 1
        best = min(counts, key=lambda lid: (-counts[lid], lid))
        groups.setdefault(best, []).append(pos)
    site_of = array("q", bytes(8 * n))
    loads = [0] * num_sites
    # largest group first onto the lightest site; a group bigger than
    # the ideal share is split so one hot label cannot starve the rest
    cap = max(1, ceil(n / num_sites))
    order = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for _lid, members in order:
        for start in range(0, len(members), cap):
            chunk = members[start : start + cap]
            site = min(range(num_sites), key=lambda s: (loads[s], s))
            loads[site] += len(chunk)
            for pos in chunk:
                site_of[pos] = site
    return site_of


def _partition_greedy(fg: FrozenGraph, num_sites: int) -> array:
    """Linear deterministic greedy (streaming METIS-style edge cut).

    Nodes stream in snapshot position order and each placement maximizes
    ``affinity * (1 - size / cap)`` where affinity counts already-placed
    neighbors (out- and in-, via one precomputed reverse pass) on the
    candidate site.  ``cap`` is the balanced share plus 10% slack, so
    balance stays bounded while the damping still prefers emptier sites
    on ties.

    Position order matters: it is the order the loader emitted nodes, so
    neighborhoods (a crawl's host blocks, an export's collections) are
    contiguous runs and each node usually sees a placed neighbor.  A BFS
    order from the root is actively bad here -- a hub root fans out to
    every cluster at depth one, interleaving all of them before any has
    enough placed mass to attract its members.
    """
    offsets, targets, index = fg.offsets, fg.targets, fg.index
    n = fg.num_nodes
    if n == 0:
        return array("q")

    def pos_of(node: int) -> int:
        return node if index is None else index[node]

    # reverse adjacency once, so affinity sees in-neighbors too: on a
    # crawl most host-internal structure is one-directional and
    # out-edges alone would miss half of it
    rev_off = array("q", bytes(8 * (n + 1)))
    for i in range(fg.num_edges):
        rev_off[pos_of(targets[i]) + 1] += 1
    for pos in range(n):
        rev_off[pos + 1] += rev_off[pos]
    rev_src = array("q", bytes(8 * fg.num_edges))
    cursor = array("q", rev_off[:-1])
    for pos in range(n):
        for i in range(offsets[pos], offsets[pos + 1]):
            dst_pos = pos_of(targets[i])
            rev_src[cursor[dst_pos]] = pos
            cursor[dst_pos] += 1

    cap = max(1, ceil(n / num_sites * 1.1))
    site_of = array("q", [-1]) * n
    loads = [0] * num_sites
    affinity = [0] * num_sites
    for pos in range(n):
        for s in range(num_sites):
            affinity[s] = 0
        for i in range(offsets[pos], offsets[pos + 1]):
            s = site_of[pos_of(targets[i])]
            if s >= 0:
                affinity[s] += 1
        for i in range(rev_off[pos], rev_off[pos + 1]):
            s = site_of[rev_src[i]]
            if s >= 0:
                affinity[s] += 1
        best, best_score = 0, float("-inf")
        for s in range(num_sites):
            load = loads[s]
            if load >= cap:
                continue
            score = affinity[s] * (1.0 - load / cap)
            # break score ties toward the lighter site, then lower id
            if score > best_score or (
                score == best_score and load < loads[best]
            ):
                best, best_score = s, score
        site_of[pos] = best
        loads[best] += 1
    return site_of


PARTITION_STRATEGIES: dict[str, Callable[[FrozenGraph, int], array]] = {
    "hash": _partition_hash,
    "label": _partition_label,
    "greedy": _partition_greedy,
}


def build_partition(
    fg: FrozenGraph, num_sites: int, strategy: str = "greedy"
) -> Partition:
    """Partition a frozen snapshot into ``num_sites`` sites.

    ``strategy`` names an entry of :data:`PARTITION_STRATEGIES`.  The
    result is deterministic for a given snapshot (no randomness in any
    strategy), so two sites partitioning the same snapshot agree
    without communicating.
    """
    if num_sites < 1:
        raise ValueError("need at least one site")
    try:
        fn = PARTITION_STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(PARTITION_STRATEGIES))
        raise ValueError(
            f"unknown partition strategy {strategy!r} (known: {known})"
        ) from None
    site_of = fn(fg, num_sites)
    return Partition(
        num_sites=num_sites,
        strategy=strategy,
        site_of=site_of,
        stats=_compute_stats(fg, site_of, num_sites),
    )
