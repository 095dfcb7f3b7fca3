"""E12: a checkpoint writes ``offsets``/``targets`` in position order, so
node numbering is the disk layout; clustering it by DFS saves page faults."""

import random
from collections import OrderedDict

from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.datasets import generate_acedb

PAGE = 64  #: target ids per page
CACHES = (4, 16, 64, 256, 1024)


def renumbered(g: Graph, order: list[int]):
    """``g`` frozen with node ``order[i]`` given id ``i``, edges in order."""
    copy = Graph()
    ids = {old: copy.new_node() for old in order}
    for old in order:
        for edge in g.edges_from(old):
            copy.add_edge(ids[old], edge.label, ids[edge.dst])
    copy.set_root(ids[g.root])
    return freeze(copy)


def dfs_order(g) -> list[int]:
    order, seen, stack = [], {g.root}, [g.root]
    while stack:
        order.append(node := stack.pop())
        for dst in reversed([edge.dst for edge in g.edges_from(node)]):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return order


def scan_faults(fg, cache_pages: int) -> int:
    """LRU faults of one DFS scan reading each visited block's targets."""
    cache, faults = OrderedDict(), 0
    for node in dfs_order(fg):
        lo, hi = fg.offsets[(p := fg._pos(node))], fg.offsets[p + 1]
        for page in range(lo // PAGE, (hi - 1) // PAGE + 1) if hi > lo else ():
            faults += page not in cache
            cache[page] = None
            cache.move_to_end(page)
            if len(cache) > cache_pages:
                cache.popitem(last=False)
    return faults


def test_dfs_clustering_beats_a_shuffle_until_the_cache_holds_every_page():
    db = generate_acedb(300, seed=121, max_depth=8)
    order = dfs_order(db)
    clustered = renumbered(db, order)
    scattered = renumbered(db, random.Random(1).sample(order, len(order)))
    pages = -(-clustered.num_edges // PAGE)
    ratios = [scan_faults(scattered, c) / scan_faults(clustered, c) for c in CACHES]
    assert ratios[0] > 5  # measured: x38.1, 34.0, 18.4, 1.0, 1.0 over 122 pages
    assert all(later <= earlier for earlier, later in zip(ratios, ratios[1:]))
    assert CACHES[-1] >= pages and all(r == 1 for c, r in zip(CACHES, ratios) if c >= pages)
