r"""UnQL: structural recursion and the select/where language (section 3).

* :mod:`~repro.unql.sstruct` -- cycle-safe structural recursion (bulk
  semantics), the vertical component of the algebra;
* :mod:`~repro.unql.restructure` -- deep restructuring (relabel, collapse,
  drop, short-circuit, the "Bacall" fix);
* :mod:`~repro.unql.parser` / :mod:`~repro.unql.evaluator` -- the
  select/where surface language with general path expressions, label and
  tree variables;
* :mod:`~repro.unql.optimizer` -- index-driven fixed-path resolution and
  label pruning (section 4).

Quick use::

    from repro import tree
    from repro.unql import unql

    db = tree({"Entry": [{"Movie": {"Title": "Casablanca"}}]})
    titles = unql(r'select {Title: \t} where {Entry.Movie.Title: \t} in db',
                  db=db)
"""

from __future__ import annotations

from ..core.graph import Graph
from ..index import GraphIndexes
from ..obs import QueryProfile
from .ast import Query
from .evaluator import UnqlRuntimeError, evaluate_query
from .optimizer import evaluate_with_indexes, fixed_path_of, query_is_prunable
from .parser import UnqlSyntaxError, parse_query
from .restructure import (
    collapse_edges,
    drop_edges,
    fix_bacall,
    insert_below,
    keep_only,
    relabel,
    relabel_where,
    short_circuit,
)
from .sstruct import REC_MARKER, SubtreeView, keep_edge, rec, srec, srec_tree
from .traverse import TraverseSyntaxError, traverse
from .views import View, ViewCatalog, ViewError

__all__ = [
    "unql",
    "parse_query",
    "evaluate_query",
    "evaluate_with_indexes",
    "Query",
    "UnqlSyntaxError",
    "UnqlRuntimeError",
    "srec",
    "srec_tree",
    "rec",
    "keep_edge",
    "REC_MARKER",
    "SubtreeView",
    "relabel",
    "relabel_where",
    "collapse_edges",
    "drop_edges",
    "keep_only",
    "short_circuit",
    "insert_below",
    "fix_bacall",
    "fixed_path_of",
    "query_is_prunable",
    "traverse",
    "TraverseSyntaxError",
    "View",
    "ViewCatalog",
    "ViewError",
]


def unql(
    text: str,
    indexes: GraphIndexes | None = None,
    profile: QueryProfile | None = None,
    **sources: Graph,
) -> Graph:
    r"""Parse and evaluate a UnQL query.

    ``sources`` supplies the databases the query's ``in <name>`` clauses
    refer to (usually just ``db=...``).  Pass ``indexes`` (built over the
    graph the query's bindings read) to enable the section-4
    optimizations; results are identical either way.  ``profile`` is
    named after ``text`` and accumulates the evaluation's counts
    (:func:`~repro.unql.evaluator.evaluate_query`).

    >>> from repro import tree
    >>> db = tree({"Movie": {"Title": "Casablanca"}})
    >>> out = unql(r'select \t where {Movie.Title: \t} in db', db=db)
    >>> [e.label.value for e in out.edges_from(out.root)]
    ['Casablanca']
    """
    query = parse_query(text)
    if profile is not None:
        profile.stamp("unql", text)
    if indexes is not None:
        return evaluate_with_indexes(query, sources, indexes, profile=profile)
    return evaluate_query(query, sources, profile=profile)
