"""Mappings between the model variants of section 2.

The paper: *"The differences between the two models are minor and give rise
to minor differences in the query language.  It is easy to define mappings
in both directions."*  This module provides those mappings:

* :func:`oem_to_graph` / :func:`graph_to_oem` between the leaf-value OEM
  model (:mod:`repro.core.oem`) and the UnQL edge-labeled model
  (:mod:`repro.core.graph`);
* the node-labeled conversions live in :mod:`repro.core.node_labeled`.

The OEM->graph direction is the one spelled out by the SIGMOD '96 paper the
tutorial cites: an atomic object ``v`` becomes the singleton tree
``{v: {}}``; a complex object becomes a node with one symbol edge per
child.  The reverse direction must handle base-labeled edges whose targets
are not leaves (legal in the UnQL model, impossible in OEM); these are
wrapped under reserved ``@data`` / ``@label`` / ``@tree`` symbols so the
mapping stays total and invertible -- round-trip fidelity is property-
tested up to bisimulation.
"""

from __future__ import annotations

from typing import Iterator

from .frozen import FrozenGraph, freeze
from .graph import Graph, GraphError
from .labels import label_of, sym
from .oem import OemDatabase, OemError, OemObject, Oid

__all__ = [
    "oem_to_graph",
    "graph_to_oem",
    "OemView",
    "DATA_MARKER",
    "LABEL_MARKER",
    "TREE_MARKER",
]

#: Reserved symbols used to embed non-OEM-expressible edges into OEM.
DATA_MARKER = "@data"
LABEL_MARKER = "@label"
TREE_MARKER = "@tree"


def oem_to_graph(db: OemDatabase, name: str | None = None) -> Graph:
    """Encode (the reachable part of) an OEM database as an edge-labeled graph.

    ``name`` selects the entry point; with several names and ``name=None``
    a synthetic root carries one symbol edge per entry name, which is how
    Lorel presents multi-name databases to path expressions.
    """
    g = Graph()
    memo: dict[Oid, int] = {}

    def conv(oid: Oid) -> int:
        if oid in memo:
            return memo[oid]
        node = g.new_node()
        memo[oid] = node
        obj = db.get(oid)
        if obj.is_atomic:
            leaf = g.new_node()
            g.add_edge(node, label_of(obj.atom), leaf)
        else:
            for label, child in obj.children:
                if label == DATA_MARKER:
                    # unwrap the reserved embedding of graph_to_oem: an
                    # atomic @data child was a bare base-labeled edge; a
                    # complex one carries @label/@tree.
                    child_obj = db.get(child)
                    if child_obj.is_atomic:
                        leaf = g.new_node()
                        g.add_edge(node, label_of(child_obj.atom), leaf)
                        continue
                    wrapped = _unwrap_marker(db, child_obj)
                    if wrapped is not None:
                        value, subtree_oid = wrapped
                        g.add_edge(node, label_of(value), conv(subtree_oid))
                        continue
                g.add_edge(node, sym(label), conv(child))
        return node

    if name is not None:
        g.set_root(conv(db.lookup_name(name)))
        return g
    names = db.names
    if len(names) == 1:
        ((_, oid),) = names.items()
        g.set_root(conv(oid))
        return g
    root = g.new_node()
    g.set_root(root)
    for entry, oid in sorted(names.items()):
        g.add_edge(root, sym(entry), conv(oid))
    return g


def _unwrap_marker(db: OemDatabase, obj) -> "tuple[object, Oid] | None":
    """Decode a complex ``@data`` wrapper: (@label scalar, @tree oid)."""
    label_value = None
    tree_oid = None
    for child_label, child_oid in obj.children:
        if child_label == LABEL_MARKER and db.get(child_oid).is_atomic:
            label_value = db.get(child_oid).atom
        elif child_label == TREE_MARKER:
            tree_oid = child_oid
        else:
            return None
    if label_value is None or tree_oid is None:
        return None
    return label_value, tree_oid


class _SnapshotObjects(dict):
    """oid -> :class:`OemObject`, decoded from the snapshot on first touch.

    This is the one definition of section 2's graph -> OEM mapping.  A
    node's oid is its node id: it is *atomic* when it encodes exactly one
    scalar (``{v: {}}``), else complex with one child per out-edge in
    edge order -- a symbol edge keeps its name and target, any other
    base-labeled edge ``i`` becomes a ``@data`` child with the synthetic
    oid ``first_synthetic + 2*i``: the atom itself when the edge ends in
    a leaf, else a wrapper holding the atom (oid ``+ 1``) under
    ``@label`` and the target under ``@tree``.
    """

    def __init__(self, fg: FrozenGraph) -> None:
        super().__init__()
        self.fg = fg
        self._first_synthetic: "Oid | None" = None

    @property
    def first_synthetic(self) -> Oid:
        """One past the largest node id: O(nodes), so paid by the first decode."""
        if self._first_synthetic is None:
            self._first_synthetic = max(self.fg.node_ids, default=-1) + 1
        return self._first_synthetic

    def is_scalar(self, pos: int) -> bool:
        """Does the node at ``pos`` encode exactly one scalar ``{v: {}}``?"""
        fg = self.fg
        offsets = fg.offsets
        lo = offsets[pos]
        if offsets[pos + 1] - lo != 1 or fg.labels_seq[fg.label_ids[lo]].is_symbol:
            return False
        leaf = fg.targets[lo] if fg.index is None else fg.index[fg.targets[lo]]
        return offsets[leaf] == offsets[leaf + 1]

    def atom_oid(self, edge: int, src: Oid) -> Oid:
        """The atomic object that holds the value on base-labeled ``edge``,
        whose source is node ``src``."""
        fg = self.fg
        if self.is_scalar(fg._pos(src)):
            return src
        wrapped = fg.out_degree(fg.targets[edge]) > 0
        return self.first_synthetic + 2 * edge + wrapped

    def __missing__(self, oid: Oid) -> OemObject:
        fg = self.fg
        edge, is_label = divmod(oid - self.first_synthetic, 2)
        if edge >= fg.num_edges:
            raise KeyError(oid)
        if edge >= 0:
            value = fg.labels_seq[fg.label_ids[edge]].value
            if is_label or fg.out_degree(fg.targets[edge]) == 0:
                obj = OemObject(oid, atom=value)
            else:
                obj = OemObject(
                    oid,
                    children=[(LABEL_MARKER, oid + 1), (TREE_MARKER, fg.targets[edge])],
                )
        else:
            try:
                pos = fg._pos(oid)
            except GraphError:
                raise KeyError(oid) from None
            lo, hi = fg.offsets[pos], fg.offsets[pos + 1]
            if self.is_scalar(pos):
                obj = OemObject(oid, atom=fg.labels_seq[fg.label_ids[lo]].value)
            else:
                labels, label_ids, targets = fg.labels_seq, fg.label_ids, fg.targets
                base = self.first_synthetic
                obj = OemObject(
                    oid,
                    children=[
                        (str(label.value), targets[i])
                        if (label := labels[label_ids[i]]).is_symbol
                        else (DATA_MARKER, base + 2 * i)
                        for i in range(lo, hi)
                    ],
                )
        self[oid] = obj
        return obj


class OemView(OemDatabase):
    """A frozen snapshot read as an OEM database, in place.

    The :class:`OemDatabase` read protocol over the CSR arrays of a
    :class:`~repro.core.frozen.FrozenGraph`: objects are decoded per
    touched node (:class:`_SnapshotObjects`) and kept, so a query pays
    for what it reads, and building the view costs nothing.  The snapshot
    is immutable, hence so is the view.
    """

    def __init__(self, fg: FrozenGraph, name: str = "DB") -> None:
        super().__init__()
        self.fg = fg
        self._objects = _SnapshotObjects(fg)
        self._names = {name: fg.root}
        self._oids: "list[Oid] | None" = None

    def atom_of(self, oid: Oid) -> "object | None":
        """A node's value read from the arrays: no object is decoded."""
        fg = self.fg
        if not fg.has_node(oid):  # a synthetic oid
            return super().atom_of(oid)
        pos = oid if fg.index is None else fg.index[oid]
        if self._objects.is_scalar(pos):
            return fg.labels_seq[fg.label_ids[fg.offsets[pos]]].value
        return None

    def oids(self) -> Iterator[Oid]:
        """Every object reachable from the entry point, ascending."""
        if self._oids is None:
            self._oids = sorted(self.reachable(self.fg.root))
        return iter(self._oids)

    def __len__(self) -> int:
        return sum(1 for _ in self.oids())

    def _read_only(self, *args: object) -> Oid:
        raise OemError("an OemView is a read-only view of its snapshot")

    new_atomic = new_complex = add_child = set_name = _read_only


def graph_to_oem(graph: "Graph | FrozenGraph", name: str = "DB") -> OemDatabase:
    """Encode an edge-labeled graph as an OEM database rooted at ``name``.

    Sharing and cycles are preserved: each graph node maps to exactly one
    oid, which is the whole point of OEM's "object identities as
    place-holders" (section 2).  Pure OEM-shaped graphs (symbol edges,
    scalars as ``{v: {}}``) round-trip without markers; other base-labeled
    edges are wrapped as described in the module docstring.

    The result is the materialized copy of :class:`OemView` (same objects
    and child order, oids renumbered densely from 1 in the view's order):
    a mutable database or exchange format -- queries can read the view.
    """
    view = OemView(freeze(graph), name)
    db = OemDatabase()
    objects = [view.get(oid) for oid in view.oids()]
    renumbered: dict[Oid, Oid] = {}
    for obj in objects:
        renumbered[obj.oid] = (
            db.new_complex() if obj.is_complex else db.new_atomic(obj.atom)
        )
    for obj in objects:
        for label, child in obj.children:
            db.add_child(renumbered[obj.oid], label, renumbered[child])
    db.set_name(name, renumbered[view.lookup_name(name)])
    return db
