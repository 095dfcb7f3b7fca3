"""Graph statistics for cost-based query planning.

The Lorel optimizer's original clause costs were shape heuristics: an
exact label step cost 1, a star 16, independent of the data.  On real
data the numbers that matter are *frequencies*: how many edges carry each
label, how selective each value is.
A :class:`GraphStatistics` snapshot collects exactly those at freeze
time (one O(edges) pass -- the frozen layout has the label histogram
nearly for free) and exposes a cardinality estimator over the path-regex
AST that :func:`repro.lorel.optimizer.clause_cost` consumes.

Estimates follow the textbook System-R shapes on label frequencies:

* an exact atom costs its label count (0 for an absent label, which
  correctly sorts "provably empty" clauses first -- they empty the
  binding set immediately);
* a non-exact atom (glob / ``_`` / type test / negation) costs the sum
  of the counts of the matching labels;
* concatenation multiplies and renormalizes by the edge count
  (independence assumption), alternation adds, and closures add one full
  edge-set scan to the inner estimate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..automata.regex import (
    AltRE,
    AtomRE,
    ConcatRE,
    EpsilonRE,
    OptRE,
    PathRegex,
    PlusRE,
    StarRE,
)
from ..core.labels import Label, label_of, sym

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.frozen import FrozenGraph
    from ..core.oem import OemDatabase

__all__ = ["GraphStatistics"]


class GraphStatistics:
    """Frequency statistics of one database snapshot.

    ``label_counts`` maps each distinct edge label to its occurrence
    count; ``value_counts`` maps base-data labels (the leaf values) to
    their counts, which is what value-selectivity estimates divide by.
    """

    __slots__ = ("num_nodes", "num_edges", "label_counts", "value_counts")

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        label_counts: dict[Label, int],
        *,
        value_counts: "dict[Label, int] | None" = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.label_counts = label_counts
        self.value_counts = (
            value_counts
            if value_counts is not None
            else {lab: n for lab, n in label_counts.items() if lab.is_base}
        )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_frozen(cls, fg: "FrozenGraph") -> "GraphStatistics":
        """Collect statistics from a frozen snapshot (one pass over edges)."""
        counts = [0] * len(fg.labels_seq)
        for lid in fg.label_ids:
            counts[lid] += 1
        label_counts = {fg.labels_seq[lid]: n for lid, n in enumerate(counts) if n}
        return cls(fg.num_nodes, fg.num_edges, label_counts)

    @classmethod
    def from_oem(cls, db: "OemDatabase") -> "GraphStatistics":
        """Collect statistics from an OEM database (symbols + atom values)."""
        label_counts: dict[Label, int] = {}
        value_counts: dict[Label, int] = {}
        num_edges = 0
        for oid in db.oids():
            obj = db.get(oid)
            if obj.is_atomic:
                lab = label_of(obj.atom)
                value_counts[lab] = value_counts.get(lab, 0) + 1
                continue
            for name, _child in obj.children:
                lab = sym(name)
                label_counts[lab] = label_counts.get(lab, 0) + 1
                num_edges += 1
        return cls(len(db), num_edges, label_counts, value_counts=value_counts)

    # -- point lookups ---------------------------------------------------------

    def count(self, label: Label) -> int:
        """Occurrences of ``label`` (0 when absent -- a proof of emptiness)."""
        return self.label_counts.get(label, 0)

    def matching_count(self, predicate) -> int:
        """Total occurrences of labels a :class:`LabelPredicate` accepts.

        Evaluated once per *distinct* label, so globs and negations cost
        vocabulary size, not edge count.
        """
        if predicate.is_exact:
            return self.count(predicate.exact_label)
        return sum(n for lab, n in self.label_counts.items() if predicate.matches(lab))

    def selectivity(self, value_label: Label) -> float:
        """Fraction of leaf values equal to ``value_label`` (0..1)."""
        total = sum(self.value_counts.values())
        if not total:
            return 0.0
        return self.value_counts.get(value_label, 0) / total

    # -- the cardinality estimator ---------------------------------------------

    def cardinality(self, path: "PathRegex | None") -> float:
        """Estimated number of (source, target) path matches for ``path``.

        An *estimate*, used only to rank clauses -- never to answer a
        query -- so the independence assumptions are acceptable: the
        greedy reorder just needs "absent label < selective chain <
        broad wildcard" to come out in that order, which frequencies
        guarantee and shape heuristics cannot.
        """
        if path is None or isinstance(path, EpsilonRE):
            return 1.0
        if isinstance(path, AtomRE):
            return float(self.matching_count(path.predicate))
        if isinstance(path, ConcatRE):
            left = self.cardinality(path.left)
            right = self.cardinality(path.right)
            return left * right / max(1.0, float(self.num_edges))
        if isinstance(path, AltRE):
            return self.cardinality(path.left) + self.cardinality(path.right)
        if isinstance(path, StarRE):
            # a closure can wander the whole edge set before stopping
            return float(self.num_edges) + self.cardinality(path.inner)
        if isinstance(path, PlusRE):
            return float(self.num_edges) + self.cardinality(path.inner)
        if isinstance(path, OptRE):
            return 1.0 + self.cardinality(path.inner)
        # unknown node kinds estimate over their parts, pessimistically
        parts: Iterable[PathRegex] = (
            getattr(path, name) for name in ("left", "right", "inner") if hasattr(path, name)
        )
        return float(self.num_edges) + sum(self.cardinality(p) for p in parts)

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready summary (the ``stats`` statistics section)."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "distinct_labels": len(self.label_counts),
            "distinct_values": len(self.value_counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GraphStatistics nodes={self.num_nodes} edges={self.num_edges} "
            f"labels={len(self.label_counts)}>"
        )
