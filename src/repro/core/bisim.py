"""Bisimulation: the observational equality of semistructured data.

Section 2 of the paper discusses *object identity*: node identifiers "apart
from an equality test, are not observable in the query language", and UnQL
avoids object identity altogether "by not having object identity and
exploiting a simple form of pattern matching".  The right notion of equality
for the value-based (UnQL) model is therefore **bisimulation**: two rooted
graphs denote the same set-theoretic tree value iff their roots are
bisimilar.  Bisimulation also underlies the well-definedness of structural
recursion on cyclic graphs (section 3): a recursion is legal exactly when it
respects bisimulation, and our engine's results are property-tested to be
bisimulation-invariant.

The implementation is iterated partition refinement on *signatures*:
``sig(n) = { (label, block(dst)) | n --label--> dst }``.  Refinement runs to
a fixed point, giving the coarsest partition, in ``O(E * iterations)`` with
``iterations <= diameter + 1`` -- comfortably fast at the paper's scale and
far simpler than Paige–Tarjan, which matters more here than the extra log
factor.
"""

from __future__ import annotations

from .graph import Graph, disjoint_union
from .labels import Label

__all__ = [
    "coarsest_partition",
    "bisimilar_nodes",
    "bisimilar",
    "graph_equal",
    "bisimulation_classes",
    "reduce_graph",
]


def coarsest_partition(graph: Graph, nodes: set[int] | None = None) -> dict[int, int]:
    """Compute the coarsest bisimulation partition of ``nodes``.

    Returns a mapping ``node -> block id``; two nodes are bisimilar iff
    they map to the same block.  ``nodes`` defaults to every node of the
    graph (not only the reachable ones, so the function also serves the
    multi-graph arena built by :func:`~repro.core.graph.disjoint_union`).
    """
    universe = set(graph.nodes()) if nodes is None else set(nodes)
    # Initial partition: a single block.  (Refining from the one-block
    # partition converges to the coarsest bisimulation.)
    block: dict[int, int] = {n: 0 for n in universe}
    while True:
        signatures: dict[int, frozenset[tuple[Label, int]]] = {}
        for n in universe:
            signatures[n] = frozenset(
                (e.label, block[e.dst]) for e in graph.edges_from(n) if e.dst in universe
            )
        # Renumber blocks by (old block, signature) so refinement is stable.
        renumber: dict[tuple[int, frozenset], int] = {}
        new_block: dict[int, int] = {}
        for n in sorted(universe):
            key = (block[n], signatures[n])
            if key not in renumber:
                renumber[key] = len(renumber)
            new_block[n] = renumber[key]
        if len(set(new_block.values())) == len(set(block.values())):
            return new_block
        block = new_block


def bisimilar_nodes(graph: Graph, a: int, b: int) -> bool:
    """True iff nodes ``a`` and ``b`` of one graph are bisimilar."""
    partition = coarsest_partition(graph)
    return partition[a] == partition[b]


def bisimilar(g1: Graph, g2: Graph) -> bool:
    """True iff the two rooted graphs denote the same tree value.

    This is the equality the paper wants for value-based comparison "across
    databases" where object identities are meaningless: the graphs are laid
    side by side in one arena and their roots compared under the coarsest
    bisimulation of the combined node set.
    """
    arena, (m1, m2) = disjoint_union([g1, g2])
    partition = coarsest_partition(arena)
    return partition[m1[g1.root]] == partition[m2[g2.root]]


#: Alias emphasising that bisimulation *is* graph equality in this model.
graph_equal = bisimilar


def bisimulation_classes(graph: Graph) -> list[set[int]]:
    """The bisimulation equivalence classes of the graph's nodes."""
    partition = coarsest_partition(graph)
    classes: dict[int, set[int]] = {}
    for node, blk in partition.items():
        classes.setdefault(blk, set()).add(node)
    return [classes[b] for b in sorted(classes)]


def reduce_graph(graph: Graph) -> Graph:
    """The bisimulation-minimal quotient of the graph.

    Every node is collapsed into its bisimulation class; the result is the
    canonical smallest graph with the same tree value (``bisimilar(g,
    reduce_graph(g))`` always holds -- a property test guards this).  The
    quotient is what a value-based store would actually keep on disk, and
    it is also the first step of DataGuide-style summarization.
    """
    reach = graph.reachable()
    partition = coarsest_partition(graph, reach)
    out = Graph()
    node_for_block: dict[int, int] = {}
    for node in sorted(reach):
        blk = partition[node]
        if blk not in node_for_block:
            node_for_block[blk] = out.new_node()
    out.set_root(node_for_block[partition[graph.root]])
    added: set[tuple[int, Label, int]] = set()
    for node in sorted(reach):
        src = node_for_block[partition[node]]
        for edge in graph.edges_from(node):
            if edge.dst not in reach:
                continue
            dst = node_for_block[partition[edge.dst]]
            key = (src, edge.label, dst)
            if key not in added:
                added.add(key)
                out.add_edge(src, edge.label, dst)
    return out
