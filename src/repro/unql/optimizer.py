"""Query optimizations for the UnQL fragment (section 4).

Two of the optimizations the paper sketches are implemented here:

* **Fixed-path short-circuiting.**  A pattern edge that is a pure
  concatenation of exact labels (``Entry.Movie.Title``) does not need the
  automaton product at all: if a :class:`~repro.index.PathIndex` covers the
  path, its targets come straight out of the index ("the addition of path
  ... indices on labels").
* **Label pruning.**  A pattern edge mentioning an exact label that occurs
  nowhere in the database (checked against the
  :class:`~repro.index.LabelIndex`) can only produce the empty binding set,
  so the whole conjunctive clause -- and with it the query, if it was the
  only binding -- is pruned before any traversal happens.

Both rewrites are *safe*: they never change the answer, only the work.
:func:`fixed_path_of` is also reused by the schema-based pruning of
:mod:`repro.schema.prune`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..automata.regex import AtomRE, ConcatRE, PathRegex
from ..core.graph import Graph
from ..core.labels import Label
from ..index import GraphIndexes
from ..obs import QueryProfile
from .ast import Binding, NestedPattern, Pattern, PatternMember, Query, RegexEdge
from .evaluator import evaluate_query

__all__ = ["fixed_path_of", "query_is_prunable", "evaluate_with_indexes"]


def fixed_path_of(regex: PathRegex) -> tuple[Label, ...] | None:
    """The label sequence of a pure exact-concat regex, else ``None``."""
    if isinstance(regex, AtomRE):
        if regex.predicate.is_exact:
            return (regex.predicate.exact_label,)
        return None
    if isinstance(regex, ConcatRE):
        left = fixed_path_of(regex.left)
        right = fixed_path_of(regex.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _exact_labels_in_pattern(pattern: Pattern) -> Iterator[Label]:
    """Every exact label that a pattern *requires* on some edge."""
    for member in pattern.members:
        if isinstance(member.edge, RegexEdge):
            path = fixed_path_of(member.edge.regex)
            if path is not None:
                yield from path
        if isinstance(member.target, NestedPattern):
            yield from _exact_labels_in_pattern(member.target.pattern)


def query_is_prunable(query: Query, indexes: GraphIndexes) -> bool:
    """True iff some required exact label is absent from the database.

    Such a query has an empty answer; the label index proves it without
    touching the graph.
    """
    for binding in query.bindings:
        if binding.source_is_var:
            continue
        for label in _exact_labels_in_pattern(binding.pattern):
            if indexes.label.count(label) == 0:
                return True
    return False


def _member_index_targets(
    member: PatternMember, indexes: GraphIndexes
) -> frozenset[int] | None:
    """Index-resolved target nodes for a fixed-path member, if covered."""
    if not isinstance(member.edge, RegexEdge):
        return None
    path = fixed_path_of(member.edge.regex)
    if path is None:
        return None
    return indexes.path.lookup(path)


def evaluate_with_indexes(
    query: Query,
    sources: Mapping[str, Graph],
    indexes: GraphIndexes,
    *,
    profile: "QueryProfile | None" = None,
) -> Graph:
    """Evaluate a query with both optimizations enabled.

    ``indexes`` must be built over the graph bound to the *first* source
    name used by the query's root-level bindings (the common single-``db``
    case; multi-source queries fall back to plain evaluation for the other
    sources).  ``profile`` follows :func:`~repro.unql.evaluator.
    evaluate_query`; an index-resolved pattern member shows as
    ``index_hits`` instead of a traversal, a pruned query as no work.
    """
    if query_is_prunable(query, indexes):
        return Graph.empty()
    rewritten = _rewrite_fixed_paths(query, indexes)
    return evaluate_query(rewritten, sources, profile=profile)


def _rewrite_fixed_paths(query: Query, indexes: GraphIndexes) -> Query:
    """Replace index-covered fixed-path members by precomputed target sets.

    The rewrite happens by substituting the member's regex with an
    :class:`_IndexResolvedEdge`, which the evaluator treats as "iterate
    exactly these nodes" (it subclasses RegexEdge, so unoptimized engines
    still see a valid regex and correctness is preserved even if the
    evaluator ignores the annotation).
    """
    new_bindings = []
    for binding in query.bindings:
        if binding.source_is_var:
            new_bindings.append(binding)
            continue
        members = []
        for member in binding.pattern.members:
            targets = _member_index_targets(member, indexes)
            if targets is None:
                members.append(member)
            else:
                members.append(
                    PatternMember(
                        _IndexResolvedEdge(
                            member.edge.regex, member.edge.text, targets
                        ),
                        member.target,
                    )
                )
        new_bindings.append(
            Binding(Pattern(tuple(members)), binding.source, binding.source_is_var)
        )
    return Query(query.construct, tuple(new_bindings), query.conditions)


class _IndexResolvedEdge(RegexEdge):
    """A RegexEdge carrying its precomputed target node set."""

    def __init__(self, regex: PathRegex, text: str, targets: frozenset[int]) -> None:
        object.__setattr__(self, "regex", regex)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "targets", targets)
