"""Lorel: the SQL-style language over OEM (section 3's first approach).

Quick use::

    from repro.core.oem import OemDatabase
    from repro.lorel import lorel, lorel_rows

    db = OemDatabase.from_obj(
        {"Entry": [{"Movie": {"Title": "Casablanca", "Year": 1942}}]})
    answer = lorel('select m.Title from DB.Entry.Movie m '
                   'where m.Year < 1950', db)
    print(lorel_rows(answer))   # [{'Title': ['Casablanca']}]
"""

from __future__ import annotations

from ..core.oem import OemDatabase
from .ast import LorelQuery
from .coerce import compare_values, like_value
from .evaluator import (
    LorelRuntimeError,
    construct_answer,
    evaluate_lorel,
    lorel_bindings,
)
from .optimizer import clause_cost, reorder_from_clauses
from .parser import LorelSyntaxError, parse_lorel

__all__ = [
    "lorel",
    "lorel_rows",
    "parse_lorel",
    "evaluate_lorel",
    "lorel_bindings",
    "construct_answer",
    "reorder_from_clauses",
    "clause_cost",
    "compare_values",
    "like_value",
    "LorelQuery",
    "LorelSyntaxError",
    "LorelRuntimeError",
]


def lorel(
    text: str,
    db: OemDatabase,
    db_name: str = "DB",
    optimize: bool = True,
    use_indexes: bool = True,
) -> OemDatabase:
    """Parse and evaluate a Lorel query against an OEM database.

    Returns the answer as a new OEM database named ``Answer`` whose root
    holds one ``row`` child per result.  ``optimize=True`` applies the
    dependency-safe from-clause reordering; ``use_indexes=True``
    additionally routes through the planner layer: the cached
    :class:`~repro.planner.OemIndexes` of ``db`` (rebuilt automatically
    when the database mutates) push selective where-conjuncts down into
    the binding stage, and the snapshot's
    :class:`~repro.planner.GraphStatistics` switch the reordering to the
    frequency-driven cost model.  Answers, row order included, are
    identical under every flag combination -- tested.
    """
    query = plan = parse_lorel(text)
    indexes = None
    if use_indexes:
        from ..planner.pushdown import oem_indexes_for

        indexes = oem_indexes_for(db)
    if optimize:
        # one clause has one order: the statistics are only collected
        # when there is a choice for them to make
        several = indexes is not None and len(query.from_clauses) > 1
        plan = reorder_from_clauses(query, stats=indexes.stats if several else None)
    return evaluate_lorel(plan, db, db_name, indexes=indexes, written=query)


def lorel_rows(answer: OemDatabase) -> list[dict[str, list[object]]]:
    """Flatten an answer database into dicts of atomic values per row.

    Complex projected objects appear as nested dicts; atomic ones as
    their values; a cyclic reference renders as the marker string
    ``"<cycle>"`` (OEM data is cyclic in general).  Meant for tests and
    quick inspection.
    """

    def value_of(oid, on_path: frozenset) -> object:
        obj = answer.get(oid)
        if obj.is_atomic:
            return obj.atom
        if oid in on_path:
            return "<cycle>"
        deeper = on_path | {oid}
        out: dict[str, list[object]] = {}
        for label, child in obj.children:
            out.setdefault(label, []).append(value_of(child, deeper))
        return out

    root = answer.lookup_name("Answer")
    rows = []
    for row_oid in answer.children(root, "row"):
        row: dict[str, list[object]] = {}
        for label, child in answer.get(row_oid).children:
            row.setdefault(label, []).append(value_of(child, frozenset()))
        rows.append(row)
    return rows
