"""Evaluator for the UnQL select/where fragment.

Semantics: a query denotes ``U { construct(env) | env in bindings }`` --
the union, over every environment produced by matching the binding
patterns, of the construct instantiated under that environment.  This is
the "select fragment" the paper says both UnQL and Lorel converge on,
evaluated here over the edge-labeled model directly (UnQL avoids object
identity "by not having object identity and exploiting a simple form of
pattern matching").

Pattern matching itself rides on the RPQ product machinery of
:mod:`repro.automata.product`, so general path expressions inside patterns
cost ``O(edges x automaton states)`` even on cyclic data.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..automata.plan_cache import PlanCache
from ..automata.product import compile_rpq, rpq_nodes
from ..core.frozen import freeze
from ..core.graph import Graph
from ..core.labels import Label, LabelKind
from ..obs import QueryProfile
from .ast import (
    Binding,
    Comparison,
    Condition,
    Construct,
    ConstructLabel,
    ConstructLiteral,
    ConstructTree,
    ConstructUnion,
    ConstructVar,
    LikeCondition,
    LiteralTarget,
    NestedPattern,
    Pattern,
    Query,
    RegexEdge,
    TreeVar,
    TypeCheck,
)

__all__ = [
    "evaluate_query",
    "query_bindings",
    "UnqlRuntimeError",
    "Bindings",
]


class UnqlRuntimeError(ValueError):
    """Raised on evaluation errors (unknown variables/sources...)."""


#: Compiled regex-edge plans shared across UnQL queries, keyed by the
#: edge's source text.  A profiled evaluation compiles fresh instead
#: (:func:`_regex_targets`), so its ``dfa_states`` count is independent
#: of query history.
_PLAN_CACHE = PlanCache(name="unql_plan_cache")

#: A type test's function (``isint`` ... ``issymbol``) -> the kind it holds for
_TYPE_TESTS = {f"is{kind.value}": kind for kind in LabelKind}


@dataclass(frozen=True)
class _TreeBinding:
    graph: Graph
    node: int


#: An environment: variable -> bound label or bound (graph, node) tree.
Bindings = Mapping[str, "_TreeBinding | Label"]


def evaluate_query(
    query: Query,
    sources: Mapping[str, Graph],
    *,
    profile: "QueryProfile | None" = None,
) -> Graph:
    """Run a parsed query against named database graphs.

    ``sources`` maps the names used in ``in <name>`` clauses (typically
    just ``db``) to graphs.  Returns the result graph (the union of all
    instantiated constructs).

    ``profile`` accumulates over every pattern-matching sub-operation:
    the RPQ products run for regex edges, the one-step scans for
    label-variable edges, and the binding environments that survive the
    conditions; ``results`` grows by the construct pieces grafted under
    the answer root.  Counts are deterministic for a fixed query and
    database (asserted by the golden-profile suite).
    """
    base = 0
    if profile is not None:
        profile.stamp("unql")
        base = profile.results
    result = Graph.empty()
    root = result.root
    for env in _environments(query, sources, profile):
        piece = _build_construct(query.construct, env)
        # accumulate in place: grafting each piece under the shared root
        # keeps evaluation linear in the number of bindings (a repeated
        # two-sided union would re-copy the accumulated result per env).
        mapping = result._absorb(piece)
        for edge in piece.edges_from(piece.root):
            result.add_edge(root, edge.label, mapping[edge.dst])
    if profile is not None:
        # the sub-queries' matches are not this query's answers
        profile.results = base + result.out_degree(root)
    return result


def query_bindings(
    query: Query, sources: Mapping[str, Graph]
) -> list[dict[str, object]]:
    """The binding environments a query produces, without constructing.

    Tree variables appear as graph node ids, label variables as
    :class:`~repro.core.labels.Label` values.  This is the observable the
    relational translation of :mod:`repro.relational.translate` must agree
    with, and a useful debugging view of pattern matching.
    """
    out = []
    for env in _environments(query, sources):
        flat: dict[str, object] = {}
        for var, bound in env.items():
            flat[var] = bound.node if isinstance(bound, _TreeBinding) else bound
        out.append(flat)
    return out


def _environments(
    query: Query,
    sources: Mapping[str, Graph],
    profile: "QueryProfile | None" = None,
) -> list[dict[str, object]]:
    # every run reads CSR snapshots throughout: one freeze per source
    # graph the query names, none for a source that already is a snapshot
    named = {b.source for b in query.bindings if not b.source_is_var}
    snapshots: dict[int, Graph] = {}
    for name, graph in sources.items():
        if name in named and id(graph) not in snapshots:
            snapshots[id(graph)] = freeze(graph)
    sources = {n: snapshots.get(id(g), g) for n, g in sources.items()}
    envs: list[dict[str, object]] = [{}]
    for binding in query.bindings:
        envs = [
            extended
            for env in envs
            for extended in _match_binding(binding, env, sources, profile)
        ]
        if not envs:
            return []
    envs = [env for env in envs if all(_check_condition(c, env) for c in query.conditions)]
    if profile is not None:
        profile.bindings_produced += len(envs)
    return envs


def _match_binding(
    binding: Binding,
    env: dict[str, object],
    sources: Mapping[str, Graph],
    profile: "QueryProfile | None" = None,
) -> Iterator[dict[str, object]]:
    if binding.source_is_var:
        bound = env.get(binding.source)
        if not isinstance(bound, _TreeBinding):
            raise UnqlRuntimeError(
                f"'in \\{binding.source}' needs a bound tree variable"
            )
        graph, node = bound.graph, bound.node
    else:
        try:
            graph = sources[binding.source]
        except KeyError:
            raise UnqlRuntimeError(
                f"no database named {binding.source!r} was supplied"
            ) from None
        node = graph.root
    yield from _match_pattern(binding.pattern, graph, node, env, profile)


def _match_pattern(
    pattern: Pattern,
    graph: Graph,
    node: int,
    env: dict[str, object],
    profile: "QueryProfile | None" = None,
) -> Iterator[dict[str, object]]:
    """All extensions of ``env`` under which ``pattern`` matches at ``node``."""
    envs = [env]
    for member in pattern.members:
        next_envs: list[dict[str, object]] = []
        # An optimizer-annotated edge carries its target set precomputed
        # from the path index (see repro.unql.optimizer).
        precomputed = getattr(member.edge, "targets", None)
        if precomputed is not None:
            if profile is not None:
                profile.index_hits += len(envs)
            targets = sorted(precomputed)
        elif isinstance(member.edge, RegexEdge):
            # The regex's target set depends only on (graph, node, plan),
            # not on the environment: evaluate it once for the whole env
            # column rather than once per environment.
            targets = sorted(_regex_targets(member.edge, graph, node, profile))
        else:
            targets = None
        for current in envs:
            if targets is not None:
                for target_node in targets:
                    next_envs.extend(
                        _match_target(member.target, graph, target_node, current, profile)
                    )
            else:  # label variable edge: one step, binding the label
                var = member.edge.var
                out_edges = graph.edges_from(node)
                if profile is not None:
                    profile.nodes_visited += 1
                    profile.edges_expanded += len(out_edges)
                for edge in out_edges:
                    bound = current.get(var)
                    if bound is not None and bound != edge.label:
                        continue
                    extended = dict(current)
                    extended[var] = edge.label
                    next_envs.extend(
                        _match_target(member.target, graph, edge.dst, extended, profile)
                    )
        envs = next_envs
        if not envs:
            return
    yield from envs


def _regex_targets(
    edge: RegexEdge, graph: Graph, node: int, profile: "QueryProfile | None"
) -> set[int]:
    """The nodes ``edge``'s path regex reaches from ``node``.

    The plan is interned by the edge's text, and the kernel walks it from
    ``node`` whatever the origin.  A profiled run compiles a fresh plan,
    so what it counts does not depend on the plans earlier queries left
    behind.
    """
    if profile is not None:
        return rpq_nodes(graph, edge.regex, start=node, profile=profile)
    dfa = _PLAN_CACHE.get(edge.text, lambda: compile_rpq(edge.regex))
    return rpq_nodes(graph, dfa, start=node)


def _match_target(
    target,
    graph: Graph,
    node: int,
    env: dict[str, object],
    profile: "QueryProfile | None" = None,
) -> Iterator[dict[str, object]]:
    if isinstance(target, TreeVar):
        bound = env.get(target.var)
        candidate = _TreeBinding(graph, node)
        if bound is not None:
            # Repeated tree variables must bind the same node (identity in
            # the matching sense, not value equality).
            if not isinstance(bound, _TreeBinding) or bound.node != node or bound.graph is not graph:
                return
            yield env
            return
        extended = dict(env)
        extended[target.var] = candidate
        yield extended
        return
    if isinstance(target, LiteralTarget):
        # The node must encode the scalar: an outgoing edge with that base
        # label (the {v: {}} encoding of section 2).
        if any(e.label == target.label for e in graph.edges_from(node)):
            yield env
        return
    if isinstance(target, NestedPattern):
        yield from _match_pattern(target.pattern, graph, node, env, profile)
        return
    raise UnqlRuntimeError(f"unknown target {target!r}")


# -- conditions -------------------------------------------------------------


def _value_of(operand, is_var: bool, env: dict[str, object]):
    """Resolve an operand to a comparable Python value.

    A label variable yields its label's value; a tree variable coerces to
    a scalar when the tree encodes one (Lorel-flavoured coercion), else to
    a sentinel that fails every comparison.
    """
    if not is_var:
        assert isinstance(operand, Label)
        return operand.value
    bound = env.get(operand)
    if bound is None:
        raise UnqlRuntimeError(f"unbound variable \\{operand}")
    if isinstance(bound, Label):
        return bound.value
    assert isinstance(bound, _TreeBinding)
    edges = bound.graph.edges_from(bound.node)
    if len(edges) == 1 and edges[0].label.is_base:
        return edges[0].label.value
    return _NO_VALUE


class _NoValue:
    """Sentinel: a tree with no scalar coercion; all comparisons fail."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no scalar value>"


_NO_VALUE = _NoValue()


def _check_condition(cond: Condition, env: dict[str, object]) -> bool:
    if isinstance(cond, Comparison):
        left = _value_of(cond.left, cond.left_is_var, env)
        right = _value_of(cond.right, cond.right_is_var, env)
        if left is _NO_VALUE or right is _NO_VALUE:
            return False
        return _compare(left, cond.op, right)
    if isinstance(cond, LikeCondition):
        value = _value_of(cond.var, True, env)
        if not isinstance(value, str):
            return False
        return fnmatch.fnmatchcase(value, cond.pattern.replace("%", "*"))
    if isinstance(cond, TypeCheck):
        bound = env.get(cond.var)
        if bound is None:
            raise UnqlRuntimeError(f"unbound variable \\{cond.var}")
        if isinstance(bound, _TreeBinding):
            if cond.func == "isleaf":
                return bound.graph.out_degree(bound.node) == 0
            edges = bound.graph.edges_from(bound.node)
            if len(edges) != 1 or not edges[0].label.is_base:
                return False
            label = edges[0].label
        else:
            label = bound
            if cond.func == "isleaf":
                return False
        return label.kind is _TYPE_TESTS.get(cond.func)
    raise UnqlRuntimeError(f"unknown condition {cond!r}")


def _compare(left, op: str, right) -> bool:
    # Numeric kinds compare across int/real; mixed other types never match
    # except for (in)equality, mirroring Lorel's forgiving comparisons.
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    same_type = type(left) is type(right)
    if op == "=":
        return left == right if (numeric or same_type) else False
    if op == "!=":
        return left != right if (numeric or same_type) else True
    if not (numeric or same_type):
        return False
    try:
        return {
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[op]
    except TypeError:
        return False


# -- constructs ----------------------------------------------------------------


def _build_construct(construct: Construct, env: dict[str, object]) -> Graph:
    if isinstance(construct, ConstructLiteral):
        return Graph.singleton(construct.label)
    if isinstance(construct, ConstructVar):
        bound = env.get(construct.var)
        if bound is None:
            raise UnqlRuntimeError(f"unbound variable \\{construct.var}")
        if isinstance(bound, Label):
            # a label variable used as a value: the scalar {label: {}}
            return Graph.singleton(bound)
        assert isinstance(bound, _TreeBinding)
        return bound.graph.subgraph(bound.node)
    if isinstance(construct, ConstructUnion):
        return _build_construct(construct.left, env).union(
            _build_construct(construct.right, env)
        )
    if isinstance(construct, ConstructTree):
        result = Graph.empty()
        for clabel, child in construct.members:
            label = _resolve_label(clabel, env)
            result = result.union(Graph.singleton(label, _build_construct(child, env)))
        return result
    raise UnqlRuntimeError(f"unknown construct {construct!r}")


def _resolve_label(clabel: ConstructLabel, env: dict[str, object]) -> Label:
    if clabel.label is not None:
        return clabel.label
    bound = env.get(clabel.var or "")
    if bound is None:
        raise UnqlRuntimeError(f"unbound label variable \\{clabel.var}")
    if isinstance(bound, Label):
        return bound
    assert isinstance(bound, _TreeBinding)
    edges = bound.graph.edges_from(bound.node)
    if len(edges) == 1 and edges[0].label.is_base:
        return edges[0].label
    raise UnqlRuntimeError(
        f"tree variable \\{clabel.var} has no scalar value usable as a label"
    )
