"""Evaluator for the Lorel-style language over OEM databases.

Semantics follow Lore's select fragment:

* **from** clauses bind each alias to every object its general path
  expression reaches (paths evaluated by the same automaton product as
  everywhere else, so cyclic OEM data is fine);
* **where** filters binding environments; path operands denote the *set*
  of objects they reach and comparisons are existential over that set
  with the coercions of :mod:`repro.lorel.coerce`;
* **select** builds an answer OEM database: one ``row`` object per
  surviving environment, carrying one child per select item (labeled by
  the ``as`` name, or the last path label, or the alias).  Projected
  objects are deep-copied into the answer, preserving sharing and cycles
  -- object identity survives exactly as far as it is observable.

Every path runs on the one traversal kernel,
:class:`~repro.automata.product.RpqStepper`, once per operand for all
environments (:func:`~repro.automata.product.rpq_nodes_many`).  Over a
snapshot's :class:`~repro.core.convert.OemView` a path whose guards all
match symbols and no marker (:func:`_symbol_steps`, decided once per
path) walks the :class:`~repro.core.frozen.FrozenGraph` itself: from a
node, the OEM children such a guard can step are the node's symbol
out-edges.  Atoms are read from the arrays too
(:meth:`~repro.core.convert.OemView.atom_of`), so a query that projects
atoms decodes no object.  Every other path, and every profiled run (its
counts are of OEM children), walks the database's ``edges_from``.
"""

from __future__ import annotations

from typing import Iterator

from ..automata.dfa import LazyDfa
from ..automata.nfa import build_nfa
from ..automata.plan_cache import PlanCache
from ..automata.product import _add_product_counts, product_bfs, rpq_nodes_many
from ..automata.regex import PathRegex
from ..core.convert import DATA_MARKER, LABEL_MARKER, TREE_MARKER, OemView
from ..core.frozen import FrozenGraph
from ..core.labels import sym
from ..core.oem import OemDatabase, Oid
from ..obs import QueryProfile
from .ast import (
    BoolOp,
    Compare,
    ExistsPredicate,
    LikePredicate,
    LiteralOperand,
    LorelQuery,
    NotOp,
    PathOperand,
    SelectItem,
)
from .coerce import compare_values, like_value

__all__ = [
    "evaluate_lorel",
    "lorel_bindings",
    "construct_answer",
    "in_written_order",
    "LorelRuntimeError",
]


class LorelRuntimeError(ValueError):
    """Raised on evaluation errors (unknown aliases, bad bases...)."""


#: Compiled path plans shared across Lorel queries.  A profiled
#: evaluation compiles fresh per runner instead (:meth:`_Runner.plan_of`)
#: so its ``dfa_states`` count is independent of query history.
_PLAN_CACHE = PlanCache(name="lorel_plan_cache")

_MARKERS = tuple(sym(name) for name in (DATA_MARKER, LABEL_MARKER, TREE_MARKER))


def _symbol_steps(path: PathRegex) -> bool:
    """Does every guard of ``path`` match symbols only, and no marker?

    Then from a snapshot node the OEM children it can step are the
    node's symbol out-edges, and from a synthetic oid (an atom or wrapper
    off a base edge, whose children are markers) there are none.
    """
    return all(
        (guard.kind == "glob-symbol" or guard.kind == "exact" and guard.exact_label.is_symbol)
        and not any(map(guard.matches, _MARKERS))
        for guard in path.atoms()
    )


class _Runner:
    def __init__(
        self, db: OemDatabase, db_name: str, profile: "QueryProfile | None" = None
    ) -> None:
        self.db = db
        self.db_name = db_name
        self.profile = profile
        self.fg = db.fg if isinstance(db, OemView) and profile is None else None
        self._plans: "dict[str, tuple[LazyDfa, FrozenGraph | OemDatabase]]" = {}
        # (path text, start oid) -> targets.  A profiled run keeps no
        # memo: it traverses per binding, so its counts are the per-
        # binding work and do not depend on the order clauses batch in
        self._memo: "dict[tuple[str, Oid], set[Oid]] | None" = (
            {} if profile is None else None
        )

    def plan_of(self, path: PathRegex, text: str) -> "tuple[LazyDfa, FrozenGraph | OemDatabase]":
        """The path's plan and the graph it walks, decided once per path."""
        plan = self._plans.get(text)
        if plan is None:
            if self.profile is None:
                dfa = _PLAN_CACHE.get(text, lambda: LazyDfa(build_nfa(path)))
            else:
                dfa = LazyDfa(build_nfa(path))
                # the fresh compile's start state is work this query did
                self.profile.dfa_states += dfa.num_materialized_states
            on_snapshot = self.fg is not None and _symbol_steps(path)
            plan = self._plans[text] = (dfa, self.fg if on_snapshot else self.db)
        return plan

    def count_answers(self, envs: int) -> None:
        """Close the profile, if any: one answer row per surviving environment."""
        if self.profile is not None:
            self.profile.stamp("lorel")
            self.profile.bindings_produced += envs
            self.profile.results += envs

    def start_of(self, base: str, env: dict[str, Oid]) -> Oid:
        if base in env:
            return env[base]
        if base == self.db_name or base in self.db.names:
            return self.db.lookup_name(base if base in self.db.names else self.db_name)
        raise LorelRuntimeError(f"unknown alias or database {base!r}")

    def path_targets(self, operand: PathOperand, env: dict[str, Oid]) -> set[Oid]:
        start = self.start_of(operand.base, env)
        if operand.path is None:
            return {start}
        if self._memo is None:
            dfa, graph = self.plan_of(operand.path, operand.path_text)
            before = dfa.num_materialized_states
            targets, seen = product_bfs(graph, dfa, start)
            _add_product_counts(self.profile, graph, seen, before, dfa, 0)
            return targets
        key = (operand.path_text, start)
        if key not in self._memo:
            self.prefetch(operand, [env])
        return self._memo[key]

    def prefetch(self, operand: PathOperand, envs: "list[dict[str, Oid]]") -> None:
        """Walk ``operand`` from every environment's start into the memo.

        One :func:`rpq_nodes_many` call covers every start the memo has
        not seen; later :meth:`path_targets` calls are dict hits.  A
        no-op under profiling (counts must reflect per-binding work), and
        for an unknown base, which :meth:`path_targets` reports if the
        evaluation reaches it.
        """
        if self._memo is None or operand.path is None:
            return
        try:
            starts = [self.start_of(operand.base, env) for env in envs]
        except LorelRuntimeError:
            return
        text = operand.path_text
        missing = [s for s in dict.fromkeys(starts) if (text, s) not in self._memo]
        if not missing:
            return
        dfa, graph = self.plan_of(operand.path, text)
        if graph is self.fg:
            # a synthetic start (an atom or wrapper off a base edge) has
            # marker children only: the empty path is all it can match
            nodes = []
            for start in missing:
                if graph.has_node(start):
                    nodes.append(start)
                else:
                    self._memo[(text, start)] = {start} if dfa.is_accepting(dfa.start) else set()
            missing = nodes
        for start, targets in rpq_nodes_many(graph, dfa, missing).items():
            self._memo[(text, start)] = targets

    # -- where ----------------------------------------------------------------

    def operand_values(self, operand, env: dict[str, Oid]) -> list[object]:
        """The value set of an operand: literals are singletons; paths
        yield the atoms of the reached objects (complex objects yield a
        non-value marker that fails comparisons but counts for exists)."""
        if isinstance(operand, LiteralOperand):
            return [operand.value]
        atom_of = self.db.atom_of
        return [
            _COMPLEX if (atom := atom_of(oid)) is None else atom
            for oid in self.path_targets(operand, env)
        ]

    def check(self, predicate, env: dict[str, Oid]) -> bool:
        if isinstance(predicate, BoolOp):
            if predicate.op == "and":
                return self.check(predicate.left, env) and self.check(
                    predicate.right, env
                )
            return self.check(predicate.left, env) or self.check(predicate.right, env)
        if isinstance(predicate, NotOp):
            return not self.check(predicate.inner, env)
        if isinstance(predicate, ExistsPredicate):
            return bool(self.path_targets(predicate.operand, env))
        if isinstance(predicate, LikePredicate):
            return any(
                value is not _COMPLEX and like_value(value, predicate.pattern)
                for value in self.operand_values(predicate.operand, env)
            )
        if isinstance(predicate, Compare):
            lefts = self.operand_values(predicate.left, env)
            rights = self.operand_values(predicate.right, env)
            return any(
                left is not _COMPLEX
                and right is not _COMPLEX
                and compare_values(left, predicate.op, right)
                for left in lefts
                for right in rights
            )
        raise LorelRuntimeError(f"unknown predicate {predicate!r}")


class _Complex:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<complex object>"


_COMPLEX = _Complex()


def _bindings_with_runner(
    query: LorelQuery, runner: _Runner, indexes=None
) -> list[dict[str, Oid]]:
    """The from/where core, against an existing runner (shared dfa cache).

    With ``indexes`` (a :class:`repro.planner.pushdown.OemIndexes`), the
    pushable where-conjuncts are resolved into per-alias candidate oid
    sets *before* binding, and each alias binds only to targets inside
    its candidate set -- predicate pushdown.  The full where clause
    still filters the survivors, so the answer is identical to the
    post-filtering evaluation (asserted by the pushdown property suite);
    pushdown only shrinks the environment sets the later clauses and the
    residual filter have to process.
    """
    candidates: dict[str, set[Oid]] = {}
    if indexes is not None and query.where is not None:
        from ..planner.pushdown import pushdown_candidates

        candidates = pushdown_candidates(query, indexes, runner.db_name)
    envs: list[dict[str, Oid]] = [{}]
    for clause in query.from_clauses:
        operand = PathOperand(clause.base, clause.path, clause.path_text)
        allowed = candidates.get(clause.alias)
        if allowed is not None and runner.profile is not None:
            runner.profile.count("index_seeded")
        # When the clause path is a fixed symbol chain, a seeded clause
        # skips the forward traversal entirely: a candidate binds iff the
        # reverse walk from it over the chain reaches the clause's start,
        # which the index answers from its reverse edges in one tagged
        # walk for the whole candidate set.  The two enumerations produce
        # the same sorted oid set -- the candidate set is exact per
        # conjunct and the reverse walk is exact per path -- so only the
        # work changes (the property suite compares whole binding lists).
        reached: "dict[Oid, set[Oid]] | None" = None
        if allowed is not None:
            from ..planner.pushdown import fixed_symbol_path

            fixed = fixed_symbol_path(clause.path)
            if fixed is not None:
                reached = indexes.reaching(allowed, fixed)
        if reached is None:
            # one kernel walk from every environment's start
            runner.prefetch(operand, envs)
        nxt: list[dict[str, Oid]] = []
        for env in envs:
            if reached is not None:
                targets = reached.get(runner.start_of(clause.base, env), ())
            else:
                targets = (
                    oid
                    for oid in runner.path_targets(operand, env)
                    if allowed is None or oid in allowed
                )
            for oid in sorted(targets):
                extended = dict(env)
                extended[clause.alias] = oid
                nxt.append(extended)
        envs = nxt
        if not envs:
            return []
    if query.where is not None:
        for operand in _path_operands(query.where):
            runner.prefetch(operand, envs)
        envs = [env for env in envs if runner.check(query.where, env)]
    return envs


def _path_operands(predicate) -> "Iterator[PathOperand]":
    """The path operands of a where predicate, each walked once for all
    environments before any is checked."""
    if isinstance(predicate, BoolOp):
        yield from _path_operands(predicate.left)
        yield from _path_operands(predicate.right)
    elif isinstance(predicate, NotOp):
        yield from _path_operands(predicate.inner)
    elif isinstance(predicate, Compare):
        operands = (predicate.left, predicate.right)
        yield from (op for op in operands if isinstance(op, PathOperand))
    elif isinstance(predicate, (ExistsPredicate, LikePredicate)):
        if isinstance(predicate.operand, PathOperand):
            yield predicate.operand


def lorel_bindings(
    query: LorelQuery,
    db: OemDatabase,
    db_name: str = "DB",
    *,
    indexes=None,
    profile: "QueryProfile | None" = None,
) -> list[dict[str, Oid]]:
    """The alias environments the from/where clauses produce.

    ``indexes`` (a :class:`repro.planner.pushdown.OemIndexes`) enables
    predicate pushdown; answers are identical with or without it.

    ``profile`` accumulates every OEM product traversal the clauses ran
    (objects visited, child edges scanned, configurations explored, DFA
    states materialized) and the environments produced.  With
    ``indexes``, pushdown-seeded clauses add an ``index_seeded`` extra
    (the golden suite passes no indexes, so its profiles are untouched).
    """
    runner = _Runner(db, db_name, profile)
    envs = _bindings_with_runner(query, runner, indexes)
    runner.count_answers(len(envs))
    return envs


def _construct_answer(
    query: LorelQuery, db: OemDatabase, runner: _Runner, envs: list[dict[str, Oid]]
) -> OemDatabase:
    """Build the ``Answer`` database: one row object per environment."""
    answer = OemDatabase()
    answer_root = answer.new_complex()
    answer.set_name("Answer", answer_root)
    copied: dict[Oid, Oid] = {}
    for item in query.items:
        runner.prefetch(item.operand, envs)
    for env in envs:
        row = answer.new_complex()
        answer.add_child(answer_root, "row", row)
        for item in query.items:
            label = _item_label(item)
            for oid in sorted(runner.path_targets(item.operand, env)):
                answer.add_child(row, label, _copy_into(db, answer, copied, oid))
    return answer


def _copy_into(db: OemDatabase, answer: OemDatabase, copied: dict[Oid, Oid], oid: Oid) -> Oid:
    """Copy ``oid``'s object graph from ``db`` into ``answer``, once per oid.
    (Not a closure: a recursive one is a reference cycle, and this one
    would pin ``db`` -- a whole snapshot -- until the collector next runs.)"""
    if oid in copied:
        return copied[oid]
    atom = db.atom_of(oid)
    if atom is not None:
        new = copied[oid] = answer.new_atomic(atom)
        return new
    new = copied[oid] = answer.new_complex()
    for label, child in db.get(oid).children:
        answer.add_child(new, label, _copy_into(db, answer, copied, child))
    return new


def construct_answer(
    query: LorelQuery,
    db: OemDatabase,
    envs: "list[dict[str, Oid]]",
    db_name: str = "DB",
) -> OemDatabase:
    """Build the ``Answer`` database from precomputed environments.

    The public face of the construction phase, for engines (notably the
    SQL backend) that compute the binding environments by other means:
    answer databases are then identical by construction, because both
    engines share this exact code for the select phase.
    """
    return _construct_answer(query, db, _Runner(db, db_name), envs)


def in_written_order(
    envs: "list[dict[str, Oid]]", written: LorelQuery
) -> "list[dict[str, Oid]]":
    """``envs``, bound by any dependency-safe reordering of ``written``'s
    from clauses, in the order ``written`` itself binds them.

    Each clause binds its targets in oid order, so a nested loop emits
    environments sorted by their alias tuple in clause order: sorting by
    the tuple in written order is the written nested loop, whichever
    order ran.  A shadowed alias has no tuple; those rows stay as bound.
    """
    aliases = [clause.alias for clause in written.from_clauses]
    if len(aliases) < 2 or len(set(aliases)) < len(aliases):
        return envs
    return sorted(envs, key=lambda env: [env[alias] for alias in aliases])


def evaluate_lorel(
    query: LorelQuery,
    db: OemDatabase,
    db_name: str = "DB",
    *,
    indexes=None,
    profile: "QueryProfile | None" = None,
    written: "LorelQuery | None" = None,
) -> OemDatabase:
    """Run a parsed query; the result is an OEM database named ``Answer``.

    ``indexes`` (a :class:`repro.planner.pushdown.OemIndexes`) enables
    where-clause pushdown; the answer database is identical either way.
    When ``query`` is a reordering of ``written``
    (:func:`~repro.lorel.reorder_from_clauses`), the rows come out in
    ``written``'s order (:func:`in_written_order`), so no cost model
    shows in the answer.

    One ``profile`` covers both phases: the from/where binding traversals
    and the select items' path evaluations during answer construction.
    ``bindings_produced`` grows by the surviving environments,
    ``results`` by the answer rows; both are deterministic for a fixed
    query and database (the golden-profile suite asserts so).
    """
    runner = _Runner(db, db_name, profile)
    envs = _bindings_with_runner(query, runner, indexes)
    if written is not None:
        envs = in_written_order(envs, written)
    answer = _construct_answer(query, db, runner, envs)
    runner.count_answers(len(envs))
    return answer


def _item_label(item: SelectItem) -> str:
    if item.label is not None:
        return item.label
    if item.operand.path_text:
        # last identifier-ish component of the path text
        tail = item.operand.path_text.split(".")[-1]
        cleaned = "".join(c for c in tail if c.isalnum() or c == "_")
        if cleaned:
            return cleaned
    return item.operand.base
