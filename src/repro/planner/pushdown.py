"""Lorel predicate pushdown: where-clauses resolved through value indexes.

The seed evaluator ran every ``where`` clause as a *post-filter*: bind
every alias to every object its path reaches, then throw most
environments away.  For a selective comparison over a fixed symbol path
(``where m.Year < 1950``) that is backwards -- the database knows which
atoms satisfy the comparison, and walking the child edges *in reverse*
from those atoms yields exactly the alias bindings that can survive.

:class:`OemIndexes` materializes the two structures that walk needs in
one pass over the database: the distinct-value groups of the atomic
objects (one coercing comparison per distinct value, not per object) and
the reverse parent map (over an :class:`~repro.core.convert.OemView`
both come from the snapshot's probe index, which a commit carries: a
sorted value table, per-label edge lists and a reverse adjacency).
:func:`pushdown_candidates` decomposes a where
predicate into AND-conjuncts, recognizes the pushable shape --
``alias.fixed.symbol.path  op  literal`` (either orientation) and
``... like pattern`` -- and intersects the candidate sets per alias.
The evaluator then *seeds* each alias binding with its candidate set and
still applies the full where clause to the survivors, so pushdown can
only remove work, never change an answer (the property suite asserts
set-equality against the post-filtering evaluator).

Comparisons are evaluated with :func:`repro.lorel.coerce.compare_values`
in the conjunct's original operand orientation, so Lorel's asymmetric
coercion rules (string/number coercion, bool strictness) are preserved
bit-for-bit.  On a snapshot, ``= < <= > >=`` against a number or string
literal is a bisect of the value table instead, which
``tests/index/test_probes.py`` holds equal to that per-value test in both
orientations; ``!=``, bool literals and ``like`` stay per-value tests.

Staleness: the indexes record :attr:`~repro.core.oem.OemDatabase.version`
at build time; :func:`oem_indexes_for` keeps one cached instance per
database in a :class:`weakref.WeakKeyDictionary` (the value never
strongly references the key, so databases stay collectable) and rebuilds
on any version mismatch.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..core.convert import DATA_MARKER, LABEL_MARKER, TREE_MARKER, OemView
from ..core.labels import sym
from ..core.oem import OemDatabase, Oid
from ..index.probes import FLIPPED, probes_for
from ..lorel.ast import (
    BoolOp,
    Compare,
    LikePredicate,
    LiteralOperand,
    PathOperand,
    Predicate,
)
from .stats import GraphStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.regex import PathRegex
    from ..lorel.ast import LorelQuery

__all__ = ["OemIndexes", "oem_indexes_for", "pushdown_candidates", "fixed_symbol_path"]


def fixed_symbol_path(regex: "PathRegex | None") -> "tuple[str, ...] | None":
    """The symbol sequence of a pure exact-symbol-concat regex, else ``None``.

    ``None`` as input (a bare alias operand) is the empty path: the alias
    object itself is the comparison target.
    """
    if regex is None:
        return ()
    from ..unql.optimizer import fixed_path_of

    path = fixed_path_of(regex)
    if path is None or not all(lab.is_symbol for lab in path):
        return None
    names = tuple(str(lab.value) for lab in path)
    # the reserved wrappers of non-OEM edges are not plain symbol edges
    # of the underlying graph: such paths stay with the forward traversal
    if any(name in (DATA_MARKER, LABEL_MARKER, TREE_MARKER) for name in names):
        return None
    return names


class OemIndexes:
    """Value groups + reverse parent map over one OEM database snapshot.

    ``hits`` counts conjuncts answered from the structure, ``misses``
    conjuncts that had to stay post-filters -- the accounting surfaced by
    the ``profile --planner`` CLI.
    """

    def __init__(self, db: OemDatabase) -> None:
        self._db_ref = weakref.ref(db)
        self._built_version = db.version
        self.hits = 0
        self.misses = 0
        self._stats: "GraphStatistics | None" = None
        self._index(db)

    def _index(self, db: OemDatabase) -> None:
        # distinct atom value -> oids of the atomic objects holding it.
        # Keyed by (type, value) so 1 / 1.0 / True stay distinct groups
        # (Lorel's coercion decides their comparability, not dict hashing).
        self._atoms_by_value: dict[tuple[type, object], list[Oid]] = {}
        # child oid -> (symbol, parent oid) pairs: the reverse edge map
        self._parents: dict[Oid, list[tuple[str, Oid]]] = {}
        for oid in db.oids():
            obj = db.get(oid)
            if obj.is_atomic:
                key = (type(obj.atom), obj.atom)
                self._atoms_by_value.setdefault(key, []).append(oid)
            else:
                for name, child in obj.children:
                    self._parents.setdefault(child, []).append((name, oid))

    @property
    def stats(self) -> GraphStatistics:
        """Frequency statistics over the same snapshot, built on first use
        (only the cost-based ordering of *several* from clauses reads them)."""
        if self._stats is None:
            self._stats = GraphStatistics.from_oem(self._db_ref())
        return self._stats

    def is_stale(self) -> bool:
        """True iff the database mutated (or died) since the build."""
        db = self._db_ref()
        return db is None or db.version != self._built_version

    @property
    def num_distinct_values(self) -> int:
        return len(self._atoms_by_value)

    def atoms_where(
        self, test: Callable[[object], bool], via_symbol: bool = False
    ) -> set[Oid]:
        """Atomic oids whose value satisfies ``test``.

        ``test`` runs once per *distinct* value -- the index's point.
        ``via_symbol`` asks only for the atoms a symbol edge can lead to,
        the only ones a non-empty symbol path reaches: in a database that
        is every atom (a snapshot view skips its synthetic ones).
        """
        out: set[Oid] = set()
        for (_, value), oids in self._atoms_by_value.items():
            if test(value):
                out.update(oids)
        return out

    def atoms_comparing(
        self, op: str, literal: object, literal_first: bool = False, via_symbol: bool = False
    ) -> set[Oid]:
        """Atomic oids whose value ``v`` satisfies ``v op literal``
        (``literal op v`` when ``literal_first``) under Lorel coercion."""
        from ..lorel.coerce import compare_values

        if literal_first:
            return self.atoms_where(lambda v: compare_values(literal, op, v), via_symbol)
        return self.atoms_where(lambda v: compare_values(v, op, literal), via_symbol)

    def _edges_into(
        self, children: "dict[Oid, set[Oid]]", label: str
    ) -> Iterator[tuple[Oid, Oid]]:
        """``(child, parent)`` for every ``label`` edge ending in ``children``."""
        for oid in children:
            for name, parent in self._parents.get(oid, ()):
                if name == label:
                    yield oid, parent

    def reaching(
        self, targets: set[Oid], labels: tuple[str, ...]
    ) -> dict[Oid, set[Oid]]:
        """Source oid -> the ``targets`` its forward symbol path reaches.

        A reverse walk: for path ``a.b``, step to parents through ``b``,
        then through ``a``, each frontier oid carrying the targets it
        came from.  Multi-parents and cycles are fine -- the walk is a
        fixed number of label-filtered set expansions.
        """
        current = {oid: {oid} for oid in targets}
        for label in reversed(labels):
            nxt: dict[Oid, set[Oid]] = {}
            for child, parent in self._edges_into(current, label):
                nxt.setdefault(parent, set()).update(current[child])
            current = nxt
            if not current:
                break
        return current

    def sources_via(self, targets: set[Oid], labels: tuple[str, ...]) -> set[Oid]:
        """Oids from which the forward symbol path ``labels`` reaches a target."""
        return set(self.reaching(targets, labels))

    def accounting(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class _SnapshotIndexes(OemIndexes):
    """The same probes over an :class:`OemView`, from the snapshot's probe
    index (:mod:`repro.index.probes`): its value table holds each distinct
    value once, sorted, so a comparison is a bisect; its per-label edge
    lists lead from a value to the atoms holding it, and its reverse
    adjacency from a child to its parents.  No object is decoded."""

    def _index(self, view: OemView) -> None:
        self._objects = view._objects

    def _atoms(self, lids: "Iterable[int]", via_symbol: bool) -> set[Oid]:
        objects = self._objects
        fg = objects.fg
        edges = (edge for lid in lids for edge in probes_for(fg).labeled(lid))
        if not via_symbol:
            return {objects.atom_oid(i, src) for i, src in edges}
        # an atom on a non-scalar base edge is synthetic: no symbol parent
        srcs = {src for _, src in edges}
        index, is_scalar = fg.index, objects.is_scalar
        return {src for src in srcs if is_scalar(src if index is None else index[src])}

    def atoms_where(
        self, test: Callable[[object], bool], via_symbol: bool = False
    ) -> set[Oid]:
        labels = self._objects.fg.labels_seq
        return self._atoms(
            (lid for lid, label in enumerate(labels) if label.is_base and test(label.value)),
            via_symbol,
        )

    def atoms_comparing(
        self, op: str, literal: object, literal_first: bool = False, via_symbol: bool = False
    ) -> set[Oid]:
        values = probes_for(self._objects.fg).values
        lids = values.compare(FLIPPED.get(op, op) if literal_first else op, literal)
        if lids is None:  # != and bool literals stay a per-label test
            return super().atoms_comparing(op, literal, literal_first, via_symbol)
        return self._atoms(lids, via_symbol)

    def _edges_into(
        self, children: "dict[Oid, set[Oid]]", label: str
    ) -> Iterator[tuple[Oid, Oid]]:
        fg = self._objects.fg
        lid = fg.label_index.get(sym(label))
        if lid is not None:
            probes = probes_for(fg)
            for child in children:
                # a synthetic oid (an atom off a non-scalar edge) is no
                # node and has no symbol parent
                if fg.has_node(child):
                    for _, src in probes.labeled(lid, child):
                        yield child, src


#: One cached OemIndexes per database; values hold only a weakref back to
#: their key, so the WeakKeyDictionary can actually collect entries.
_INDEX_CACHE: "weakref.WeakKeyDictionary[OemDatabase, OemIndexes]" = (
    weakref.WeakKeyDictionary()
)


def oem_indexes_for(db: OemDatabase) -> OemIndexes:
    """The cached :class:`OemIndexes` of ``db``, rebuilt when stale."""
    cached = _INDEX_CACHE.get(db)
    if cached is None or cached.is_stale():
        cached = _SnapshotIndexes(db) if isinstance(db, OemView) else OemIndexes(db)
        _INDEX_CACHE[db] = cached
    return cached


# -- conjunct analysis -----------------------------------------------------------


def conjuncts_of(predicate: "Predicate | None") -> Iterator["Predicate"]:
    """The top-level AND-conjuncts of a predicate (stops at or/not)."""
    if predicate is None:
        return
    if isinstance(predicate, BoolOp) and predicate.op == "and":
        yield from conjuncts_of(predicate.left)
        yield from conjuncts_of(predicate.right)
        return
    yield predicate


def _candidate_entry(
    conjunct: "Predicate", indexes: OemIndexes, db_name: str
) -> "tuple[str, set[Oid]] | None":
    """``(alias, candidate oids)`` for a pushable conjunct, else ``None``.

    The candidate set is exact for the conjunct in isolation -- an alias
    binding survives the conjunct iff some atom satisfying the test is
    reachable from it over the fixed path, which is precisely what the
    reverse walk computes -- but the evaluator keeps the full where
    clause as a residual filter regardless (or/not/multi-alias conjuncts
    are never pushed, and redundancy is free compared to wrong).
    """
    from ..lorel.coerce import like_value

    operand: "PathOperand | None" = None
    atoms: "Callable[[bool], set[Oid]] | None" = None
    if isinstance(conjunct, Compare):
        left, op, right = conjunct.left, conjunct.op, conjunct.right
        if isinstance(left, PathOperand) and isinstance(right, LiteralOperand):
            operand = left
            atoms = lambda via: indexes.atoms_comparing(op, right.value, False, via)  # noqa: E731
        elif isinstance(left, LiteralOperand) and isinstance(right, PathOperand):
            operand = right
            atoms = lambda via: indexes.atoms_comparing(op, left.value, True, via)  # noqa: E731
    elif isinstance(conjunct, LikePredicate) and isinstance(
        conjunct.operand, PathOperand
    ):
        operand = conjunct.operand
        pattern = conjunct.pattern
        atoms = lambda via: indexes.atoms_where(lambda v: like_value(v, pattern), via)  # noqa: E731
    if operand is None or atoms is None or operand.base == db_name:
        return None
    path = fixed_symbol_path(operand.path)
    if path is None:
        return None
    return operand.base, indexes.sources_via(atoms(bool(path)), path)


def pushdown_candidates(
    query: "LorelQuery", indexes: OemIndexes, db_name: str = "DB"
) -> dict[str, set[Oid]]:
    """Per-alias candidate oid sets from the pushable where-conjuncts.

    Multiple pushable conjuncts on one alias intersect.  An empty dict
    means nothing was pushable (or the indexes are stale) and the
    evaluator proceeds exactly as before.
    """
    if query.where is None or indexes.is_stale():
        return {}
    out: dict[str, set[Oid]] = {}
    for conjunct in conjuncts_of(query.where):
        if not isinstance(conjunct, (Compare, LikePredicate)):
            continue
        entry = _candidate_entry(conjunct, indexes, db_name)
        if entry is None:
            indexes.misses += 1
            continue
        indexes.hits += 1
        alias, candidates = entry
        if alias in out:
            out[alias] &= candidates
        else:
            out[alias] = candidates
    return out
