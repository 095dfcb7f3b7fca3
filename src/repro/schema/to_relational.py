"""The passage back from semistructured to structured data (section 5).

"[Schemas] will also be needed for the passage back from semistructured to
structured data, for which a richer notion of schema is necessary.  This is
an area in which much further work is needed."  This module implements the
workable core of that passage: detect *table-shaped* regions of a graph --
a node whose children all arrive via one repeated symbol and all look like
flat records -- and extract them as relations.

Total structure is not required: records may miss attributes (the
semistructured reality), and the extraction either pads with ``None``
(``allow_missing=True``, producing a structured view with nulls) or skips
the non-conforming collection entirely (strict mode, reporting why).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.graph import Graph
from ..relational.relation import Relation

__all__ = ["ExtractionReport", "extract_tables"]


@dataclass
class ExtractionReport:
    """Outcome of a structure-recovery pass."""

    tables: dict[str, Relation] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)


def _scalar_value(graph: Graph, node: int):
    """The scalar a node encodes as ``{v: {}}``, else a no-value marker."""
    edges = graph.edges_from(node)
    if len(edges) == 1 and edges[0].label.is_base and graph.out_degree(edges[0].dst) == 0:
        return edges[0].label.value
    return _NOT_SCALAR


_NOT_SCALAR = object()


def _record_of(graph: Graph, node: int) -> "dict[str, object] | None":
    """Flat record at ``node``: every edge a symbol to a scalar, at most
    one per attribute name.  ``None`` if the node is not record-shaped."""
    record: dict[str, object] = {}
    for edge in graph.edges_from(node):
        if not edge.label.is_symbol:
            return None
        value = _scalar_value(graph, edge.dst)
        if value is _NOT_SCALAR:
            return None
        name = str(edge.label.value)
        if name in record:
            return None  # repeated attribute: set-valued, not relational
        record[name] = value
    return record


def extract_tables(graph: Graph, allow_missing: bool = False) -> ExtractionReport:
    """Find and extract every table-shaped collection in the graph.

    A *collection* is a node all of whose outgoing edges carry the same
    symbol (at least two of them) and whose targets are flat records.  The
    extracted table is named by the incoming edge that reaches the
    collection node (``Movies`` for ``root --Movies--> o --tuple--> ...``),
    which also covers the image of
    :func:`repro.relational.encode.relational_to_graph`.
    """
    report = ExtractionReport()
    reach = graph.reachable()
    incoming: dict[int, str] = {}
    for node in reach:
        for edge in graph.edges_from(node):
            if edge.label.is_symbol and edge.dst not in incoming:
                incoming[edge.dst] = str(edge.label.value)
    for node in sorted(reach):
        edges = graph.edges_from(node)
        if len(edges) < 2:
            continue
        labels = {e.label for e in edges}
        if len(labels) != 1 or not next(iter(labels)).is_symbol:
            continue
        name = incoming.get(node, str(next(iter(labels)).value))
        records = [_record_of(graph, e.dst) for e in edges]
        if any(r is None for r in records):
            report.skipped.append(f"{name}: members are not flat records")
            continue
        attrs = sorted({a for r in records for a in r})  # type: ignore[union-attr]
        if not allow_missing:
            partial = [r for r in records if set(r) != set(attrs)]  # type: ignore[arg-type]
            if partial:
                report.skipped.append(
                    f"{name}: {len(partial)} record(s) missing attributes "
                    "(semistructured; pass allow_missing=True for a null-padded view)"
                )
                continue
        rows = [tuple(r.get(a) for a in attrs) for r in records]  # type: ignore[union-attr]
        if name in report.tables:
            existing = report.tables[name]
            if existing.schema == tuple(attrs):
                rows.extend(existing.rows)
            else:
                report.skipped.append(f"{name}: conflicting schemas across collections")
                continue
        report.tables[name] = Relation(tuple(attrs), rows)
    return report

