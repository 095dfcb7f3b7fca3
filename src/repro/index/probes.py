"""The probe index: a snapshot's point lookups, carried across commits.

Section 1.3's browsing question ("where is ``"Casablanca"``?") and
section 3's coercing Lorel comparisons (``m.Year < 1925``) are point
probes, but a :class:`~repro.core.frozen.FrozenGraph` can only walk
forward: answered from its arrays alone, each costs a pass over the
graph or over its label vocabulary.  Angles & Gutierrez (PAPERS.md)
argue for index-free adjacency, and the argument cuts both ways -- a
snapshot that can only walk forward pays a whole-graph walk to answer
"how did I get here".  :class:`ProbeIndex` holds the three structures
that make these lookups:

* a **reverse adjacency** -- node -> its in-edges;
* **per-label edge lists** -- label id -> the edges carrying it;
* a **value table** (:class:`ValueTable`) -- the interned base labels in
  sorted keyspaces, so ``= < <= > >=`` is a bisect.

The first two also answer the product walk's pruning question, "which
nodes can still reach an edge with this label?" (:meth:`ProbeIndex.
reaching`): the label lists give the sources and the reverse adjacency
their ancestors, so a wildcard RPQ such as ``_*."Bogart"`` expands only
that region (:mod:`repro.automata.product`).

An edge is recorded as one int: its source's position and its slot
(its position in the source's block).  The snapshot keeps no per-edge
source, so a reader that starts from an edge rather than a node takes
the source from the entry (:meth:`ProbeIndex.labeled`).  A
:meth:`~repro.core.frozen.FrozenGraph.derive` splice moves global edge
indices but neither of those -- a node's new edges land at the end of
its block, and new nodes and label ids append -- so
:meth:`ProbeIndex.advance` carries the index to the next version in time
proportional to the commit.  The index is the snapshot's ``_ext``
resident ``"probes"``: built on first use after a cold freeze or a
checkpoint fold (``probe_index_built``) and carried by every later view
of the lineage (``probe_index_carried``); both counters are in
``STORAGE_METRICS``, which ``stats --json`` reports.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice
from operator import add, itemgetter, sub
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.labels import Label, LabelKind, parse_number
from ..storage.serializer import STORAGE_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.frozen import FrozenGraph
    from ..core.graph import Edge

__all__ = ["FLIPPED", "ProbeIndex", "ValueTable", "probes_for", "reverse_closure"]

_BUILT = STORAGE_METRICS.counter("probe_index_built")
_CARRIED = STORAGE_METRICS.counter("probe_index_carried")

#: ``literal op v`` rewritten as ``v FLIPPED[op] literal``: the order
#: comparisons a sorted keyspace answers
FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: an edge's entry is ``source position << _SHIFT | slot``
_SHIFT = 32
_SLOT = (1 << _SHIFT) - 1

# module globals: a member read through the class costs about ten of them
_INT, _REAL, _STRING = LabelKind.INT, LabelKind.REAL, LabelKind.STRING


class _Keyspace:
    """Label ids sorted by one key each; :meth:`where` is a bisect.

    Equal keys keep ascending label-id order, both when built at once and
    when :meth:`add` inserts a new (hence larger) id after its equals.
    """

    __slots__ = ("keys", "lids")

    def __init__(self, pairs: "list[tuple[object, int]]") -> None:
        pairs.sort(key=itemgetter(0))
        self.keys = [key for key, _ in pairs]
        self.lids = [lid for _, lid in pairs]

    def add(self, key: object, lid: int) -> None:
        at = bisect_right(self.keys, key)
        self.keys.insert(at, key)
        self.lids.insert(at, lid)

    def where(self, op: str, x: object) -> list[int]:
        """The ids whose key ``k`` satisfies ``k op x`` (``op`` in :data:`FLIPPED`)."""
        if x != x:  # NaN: no order comparison holds
            return []
        keys, lids = self.keys, self.lids
        if op == "=":
            return lids[bisect_left(keys, x) : bisect_right(keys, x)]
        if op == "<":
            return lids[: bisect_left(keys, x)]
        if op == "<=":
            return lids[: bisect_right(keys, x)]
        if op == ">":
            return lids[bisect_right(keys, x) :]
        return lids[bisect_left(keys, x) :]


def _keys(label: Label) -> "list[tuple[str, object]]":
    """The ``(keyspace, key)`` entries of one label (none for NaN or a bool)."""
    kind, value = label.kind, label.value
    if kind is _INT or kind is _REAL:
        return [("numbers", value)] if value == value else []
    if kind is not _STRING:
        return []
    number = parse_number(value)
    if number is None or number != number:
        return [("strings", value)]
    return [("strings", value), ("numeric", number)]


class ValueTable:
    """A vocabulary's base labels as the keyspaces Lorel compares them in.

    :func:`repro.lorel.coerce.compare_values` makes three kinds of order
    comparison between an atom and a literal, so there are three sorted
    keyspaces:

    * ``numbers`` -- int and real labels, by value;
    * ``numeric`` -- string labels that parse as a number
      (:func:`~repro.core.labels.parse_number`), by that number: what a
      string atom is compared as against a number literal;
    * ``strings`` -- string labels, by text.

    NaN is in none of them, because it satisfies no order comparison.
    Bool labels compare only to bools and stay a per-label test.
    ``symbols`` lists the symbol ids, for attribute-name probes.
    """

    __slots__ = ("numbers", "numeric", "strings", "symbols")

    def __init__(self, labels_seq: "Sequence[Label]") -> None:
        spaces: dict[str, list] = {"numbers": [], "numeric": [], "strings": []}
        for lid, label in enumerate(labels_seq):
            for space, key in _keys(label):
                spaces[space].append((key, lid))
        for space, pairs in spaces.items():
            setattr(self, space, _Keyspace(pairs))
        self.symbols = [lid for lid, label in enumerate(labels_seq) if label.is_symbol]

    def add(self, lid: int, label: Label) -> None:
        """Enter a newly interned label (ids only ever append)."""
        for space, key in _keys(label):
            getattr(self, space).add(key, lid)
        if label.is_symbol:
            self.symbols.append(lid)

    def compare(self, op: str, literal: object) -> "list[int] | None":
        """The ids of the base labels ``v`` with ``compare_values(v, op,
        literal)``, or ``None`` where that is not a bisect: ``!=``
        (incomparable pairs satisfy it) and a bool or non-atomic literal."""
        if op not in FLIPPED or isinstance(literal, bool):
            return None
        if isinstance(literal, (int, float)):
            return self.numbers.where(op, literal) + self.numeric.where(op, literal)
        if not isinstance(literal, str):
            return None
        lids = self.strings.where(op, literal)
        number = parse_number(literal)
        return lids if number is None else lids + self.numbers.where(op, number)


class _Grouped:
    """Edge entries grouped by a key (a target position, a label id).

    What a cold build finds is one flat array in key order, key ``k``'s
    run being ``flat[starts[k]:starts[k + 1]]``; what :meth:`add` enters
    afterwards goes to a small per-key overflow, so carrying a commit
    never re-sorts the flat part.
    """

    __slots__ = ("starts", "flat", "extra")

    def __init__(self, entries: "list[int]", keys: "Sequence[int]", num_keys: int) -> None:
        order = sorted(range(len(entries)), key=keys.__getitem__)  # stable: edge order per key
        self.flat = array("q", map(entries.__getitem__, order))
        counts = [0] * (num_keys + 1)
        for key in keys:
            counts[key + 1] += 1
        self.starts = array("q", accumulate(counts))
        self.extra: dict[int, array] = {}

    def __getitem__(self, key: int) -> array:
        starts = self.starts
        run = self.flat[starts[key] : starts[key + 1]] if key + 1 < len(starts) else array("q")
        more = self.extra.get(key)
        return run + more if more else run

    def add(self, key: int, entry: int) -> None:
        self.extra.setdefault(key, array("q")).append(entry)

    def count(self, key: int) -> int:
        """``len(self[key])``, copying nothing."""
        starts, more = self.starts, self.extra.get(key)
        flat = starts[key + 1] - starts[key] if key + 1 < len(starts) else 0
        return flat + len(more) if more else flat


class ProbeIndex:
    """Reverse adjacency, per-label edge lists and value table of a snapshot.

    Answers in the current snapshot's terms -- global edge indices and
    labels -- from entries that do not move under a splice (module
    docstring).  :meth:`advance` hands the structures on to the next
    version; the index it came from then rebuilds its own on next use, so
    it never answers with a later version's edges.
    """

    __slots__ = ("fg", "_into", "_by_label", "_values")

    def __init__(self, fg: "FrozenGraph") -> None:
        self.fg = fg
        self._into: "_Grouped | None" = None
        self._by_label: "_Grouped | None" = None
        self._values: "ValueTable | None" = None

    def _parts(self) -> "tuple[_Grouped, _Grouped, ValueTable]":
        if self._into is None:
            self._into, self._by_label, self._values = _build(self.fg)
            _BUILT.inc()
        return self._into, self._by_label, self._values

    @property
    def values(self) -> ValueTable:
        return self._parts()[2]

    @property
    def built(self) -> bool:
        """Whether the structures exist (asking builds nothing)."""
        return self._into is not None

    def label_count(self, lids: "Iterable[int]") -> int:
        """How many edges carry one of the label ids ``lids``; copies nothing."""
        return sum(map(self._parts()[1].count, lids))

    def label_targets(self, lid: int, sources: "set[int]") -> "tuple[int, list[int]]":
        """The entries read for label id ``lid``, and the targets of its
        edges whose source *position* is in ``sources``."""
        entries = self._parts()[1][lid]
        offsets, targets = self.fg.offsets, self.fg.targets
        return len(entries), [
            targets[offsets[p] + (e & _SLOT)] for e in entries if (p := e >> _SHIFT) in sources
        ]

    def labeled(self, lid: int, into: "int | None" = None) -> "list[tuple[int, int]]":
        """``(edge index, source node id)`` of each edge carrying label id
        ``lid`` -- only those into node ``into`` when given -- in any
        order.  The source is read off the edge's entry."""
        in_edges, by_label, _ = self._parts()
        fg = self.fg
        offsets, node_ids, label_ids = fg.offsets, fg.node_ids, fg.label_ids
        entries = by_label[lid] if into is None else in_edges[fg._pos(into)]
        hits = [(offsets[e >> _SHIFT] + (e & _SLOT), node_ids[e >> _SHIFT]) for e in entries]
        return hits if into is None else [hit for hit in hits if label_ids[hit[0]] == lid]

    def reaching(self, lids: "Iterable[int]") -> "tuple[set[int], int]":
        """The nodes with a path to an edge carrying one of ``lids`` (its
        source included), and the in-edges read to find them: the size of
        the region, not of the graph, since both structures are carried."""
        into, by_label, _ = self._parts()
        region = {entry >> _SHIFT for lid in lids for entry in by_label[lid]}
        reads = reverse_closure(region, into.__getitem__, _SHIFT)
        if self.fg.index is not None:
            node_ids = self.fg.node_ids
            region = {node_ids[pos] for pos in region}
        return region, reads

    def root_paths(self, nodes: "Iterable[int]") -> "dict[int, tuple[Label, ...] | None]":
        """Node -> the least shortest label path from the root to it, or
        ``None`` when the root does not reach it.

        Per node, a reverse BFS collects the nodes level by level (level
        ``k``: ``k`` edges from the node) until a level holds the root.
        The path then steps forward from the root, each time along the
        lowest slot that leads one level down -- found among the in-edges
        of that level's nodes, which the BFS already read, so a wide node
        such as the root costs nothing extra.  The lowest slot at every
        step gives the lexicographically least slot sequence among the
        shortest paths: the path of forward BFS first discovery
        (:mod:`repro.browse.search`).
        """
        fg = self.fg
        into = self._parts()[0]
        root = fg._pos(fg.root)
        offsets, label_ids, labels_seq = fg.offsets, fg.label_ids, fg.labels_seq
        paths: "dict[int, tuple[Label, ...] | None]" = {}
        for node in nodes:
            start = fg._pos(node)
            seen, levels = {start}, [[(start, into[start])]]
            while root not in seen:
                nxt = []
                for _, entries in levels[-1]:
                    for entry in entries:
                        x = entry >> _SHIFT
                        if x not in seen:
                            seen.add(x)
                            nxt.append((x, into[x]))
                if not nxt:
                    paths[node] = None
                    break
                levels.append(nxt)
            else:
                path, x = [], root
                for level in reversed(levels[:-1]):
                    # x's entries differ only in slot: the least is the lowest slot
                    best = None
                    for y, entries in level:
                        for entry in entries:
                            if entry >> _SHIFT == x and (best is None or entry < best):
                                best, step = entry, y
                    path.append(labels_seq[label_ids[offsets[x] + (best & _SLOT)]])
                    x = step
                paths[node] = tuple(path)
        return paths

    def advance(self, fg: "FrozenGraph", edges: "Sequence[Edge]") -> "ProbeIndex | None":
        """This index carried to ``fg`` (:attr:`fg` plus ``edges``, in
        commit order); ``self`` detaches.  ``None`` when never built."""
        base, into, by_label, values = self.fg, self._into, self._by_label, self._values
        self._into = self._by_label = self._values = None
        if into is None:
            return None
        for lid in range(len(base.labels_seq), len(fg.labels_seq)):
            values.add(lid, fg.labels_seq[lid])
        slots: dict[int, int] = {}  # source -> its next new edge's slot
        for edge in edges:
            src = edge.src
            slot = slots.get(src)
            if slot is None:
                slot = base.out_degree(src) if base.has_node(src) else 0
            slots[src] = slot + 1
            entry = (fg._pos(src) << _SHIFT) + slot
            into.add(fg._pos(edge.dst), entry)
            by_label.add(fg.label_index[edge.label], entry)
        _CARRIED.inc()
        carried = ProbeIndex(fg)
        carried._into, carried._by_label, carried._values = into, by_label, values
        return carried


def _build(fg: "FrozenGraph") -> "tuple[_Grouped, _Grouped, ValueTable]":
    """Every edge's entry grouped by its target and by its label.  The
    entries of the block at position ``p`` are the range from ``p <<
    _SHIFT`` over its out-degree, one C-level range per block."""
    offsets, index, targets = fg.offsets, fg.index, fg.targets
    dst_pos = targets if index is None else array("q", map(index.__getitem__, targets))
    heads = range(0, fg.num_nodes << _SHIFT, 1 << _SHIFT)
    stops = map(add, heads, map(sub, islice(offsets, 1, None), offsets))
    entries = list(chain.from_iterable(map(range, heads, stops)))
    return (
        _Grouped(entries, dst_pos, fg.num_nodes),
        _Grouped(entries, fg.label_ids, len(fg.labels_seq)),
        ValueTable(fg.labels_seq),
    )


def reverse_closure(
    region: "set[int]", into: "Callable[[int], Sequence[int]]", shift: int = 0
) -> int:
    """Grow ``region`` by every node with a path into it.  ``into(x)``
    lists ``x``'s in-edges, each an int whose source is ``entry >>
    shift``.  Returns how many in-edges were read."""
    stack, reads = list(region), 0
    while stack:
        entries = into(stack.pop())
        reads += len(entries)
        for entry in entries:
            src = entry >> shift
            if src not in region:
                region.add(src)
                stack.append(src)
    return reads


def probes_for(fg: "FrozenGraph") -> ProbeIndex:
    """The snapshot's probe index (``fg._ext["probes"]``), built on first use."""
    probes = fg._ext.get("probes")
    if probes is None:
        probes = fg._ext["probes"] = ProbeIndex(fg)
    return probes
