"""The SQL engines' facade: per-snapshot and per-database backends.

:class:`SqlBackend` owns one sqlite connection per frozen snapshot --
edge/label tables, a compiled-plan cache, and counters -- and answers
root-origin path-regex queries.  :class:`LorelSqlBackend` is its OEM
twin for Lorel queries, version-checked against the mutable
database the way :func:`repro.planner.pushdown.oem_indexes_for` is.
:func:`unql_sql` routes the root-level fixed members of an UnQL query
through the snapshot backend, reusing the optimizer's resolved-edge
annotation so the native evaluator consumes SQL-computed target sets.

Nothing routes here on its own: the service and the CLI reach these
engines only when asked for ``sql`` by name, and the differential suite
holds them equal to the native evaluators.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Mapping

from ..automata.regex import PathRegex, parse_path_regex
from ..core.frozen import freeze
from ..lorel.ast import LorelQuery
from ..lorel.evaluator import construct_answer, in_written_order
from ..lorel.parser import parse_lorel
from ..planner.stats import GraphStatistics
from ..storage.serializer import STORAGE_METRICS
from ..unql.ast import Binding, Pattern, PatternMember, Query, RegexEdge
from ..unql.evaluator import evaluate_query
from ..unql.optimizer import _IndexResolvedEdge
from .compiler import CompiledQuery, compile_rpq
from .encode import connect, encode_graph, encode_oem
from .errors import NotCompilable
from .lorel_sql import compile_lorel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.frozen import FrozenGraph
    from ..core.graph import Graph
    from ..core.oem import OemDatabase, Oid

__all__ = [
    "SqlBackend",
    "sql_backend_for",
    "LorelSqlBackend",
    "lorel_sql_backend_for",
    "lorel_sql",
    "unql_sql",
]

_IMAGES_BUILT = STORAGE_METRICS.counter("sql_image_built")


class SqlBackend:
    """The relational engine over one frozen snapshot.

    Construction pays the load once (edge + label tables and their
    indexes); queries then compile against the snapshot's vocabulary
    (plans cached by pattern text) and execute on sqlite.  ``last_sql``
    and ``counters`` expose what happened.  The image lives and dies
    with its snapshot: a commit drops it, and the next version builds
    its own on first use.
    """

    def __init__(self, fg: "FrozenGraph") -> None:
        self.fg = fg
        self.stats = GraphStatistics.from_frozen(fg)
        self.conn = connect()
        encode_graph(self.conn, fg)
        _IMAGES_BUILT.inc()
        self._plans: dict[str, CompiledQuery] = {}
        self.counters = {
            "compiles": 0,
            "plan_hits": 0,
            "executes": 0,
            "not_compilable": 0,
        }
        self.last_sql: "str | None" = None

    def compile(self, pattern: "str | PathRegex") -> CompiledQuery:
        """The cached SQL plan for a pattern (raises :class:`NotCompilable`)."""
        if isinstance(pattern, str):
            key, regex = pattern, None
        else:
            key, regex = str(pattern), pattern
        plan = self._plans.get(key)
        if plan is not None:
            self.counters["plan_hits"] += 1
            return plan
        if regex is None:
            regex = parse_path_regex(pattern)
        self.counters["compiles"] += 1
        try:
            plan = compile_rpq(self.fg, regex, self.stats)
        except NotCompilable:
            self.counters["not_compilable"] += 1
            raise
        self._plans[key] = plan
        return plan

    def rpq_nodes(
        self, pattern: "str | PathRegex", *, tracer=None
    ) -> set[int]:
        """Root-origin RPQ answer, computed by sqlite."""
        if tracer is not None:
            with tracer.span("sql.compile", pattern=str(pattern)):
                plan = self.compile(pattern)
        else:
            plan = self.compile(pattern)
        self.counters["executes"] += 1
        self.last_sql = plan.sql
        if tracer is not None:
            with tracer.span("sql.execute", kind=plan.kind) as span:
                rows = self.conn.execute(plan.sql, plan.params).fetchall()
                span.annotate(rows=len(rows))
        else:
            rows = self.conn.execute(plan.sql, plan.params).fetchall()
        return {row[0] for row in rows}


def sql_backend_for(graph: "Graph | FrozenGraph") -> SqlBackend:
    """The snapshot-cached :class:`SqlBackend` (freezing if needed),
    memoized in the snapshot's extension slot."""
    fg = freeze(graph)
    backend = fg._ext.get("sqlbackend")
    if not isinstance(backend, SqlBackend):
        backend = SqlBackend(fg)
        fg._ext["sqlbackend"] = backend
    return backend


# ---------------------------------------------------------------------------
# Lorel over OEM.


class LorelSqlBackend:
    """The relational engine over one OEM database.

    The sqlite image is a snapshot: :meth:`is_stale` compares the
    database's mutation version, and :func:`lorel_sql_backend_for`
    rebuilds on mismatch (the ``oem_indexes_for`` idiom).
    """

    def __init__(self, db: "OemDatabase", db_name: str = "DB") -> None:
        # weak, as the cache holding this backend is keyed weakly by ``db``:
        # a strong reference would keep every database ever queried alive
        self._db_ref = weakref.ref(db)
        self.db_name = db_name
        self._version = db.version
        self.conn = connect()
        encode_oem(self.conn, db)
        self._plans: dict[str, CompiledQuery] = {}
        self.counters = {"compiles": 0, "plan_hits": 0, "executes": 0}
        self.last_sql: "str | None" = None

    @property
    def db(self) -> "OemDatabase":
        """The database this image encodes; whoever queries it holds it."""
        return self._db_ref()

    def is_stale(self) -> bool:
        return self.db.version != self._version

    def compile(self, query: LorelQuery) -> CompiledQuery:
        key = repr(query)
        plan = self._plans.get(key)
        if plan is not None:
            self.counters["plan_hits"] += 1
            return plan
        self.counters["compiles"] += 1
        plan = compile_lorel(query, self.db, self.db_name)
        self._plans[key] = plan
        return plan

    def bindings(self, query: LorelQuery) -> "list[dict[str, Oid]]":
        """The binding environments, computed by sqlite.

        Row order is the native enumeration order (lexicographic over
        the alias columns), so the list equals
        :func:`repro.lorel.lorel_bindings` element for element.
        """
        plan = self.compile(query)
        self.counters["executes"] += 1
        self.last_sql = plan.sql
        aliases = plan.info["aliases"]
        rows = self.conn.execute(plan.sql, plan.params).fetchall()
        return [dict(zip(aliases, row)) for row in rows]

    def evaluate(self, query: LorelQuery, *, tracer=None) -> "OemDatabase":
        """Full query: SQL bindings + the shared native construction.

        Mirrors :func:`repro.lorel.lorel` exactly: the same
        statistics-driven from-clause reordering runs first, and the rows
        are put back in the written clause order, so they come out in the
        same order as the native path -- without that, a reordered
        enumeration (outer/inner clause swap) and another ``ORDER BY``
        disagree on multi-clause queries even when the binding set is
        identical (found by the differential harness).
        """
        from ..lorel.optimizer import reorder_from_clauses
        from ..planner.pushdown import oem_indexes_for

        plan = query
        if len(query.from_clauses) > 1:
            plan = reorder_from_clauses(
                query, stats=oem_indexes_for(self.db).stats
            )
        if tracer is not None:
            with tracer.span("lorel.sql", clauses=len(plan.from_clauses)) as span:
                envs = self.bindings(plan)
                span.annotate(bindings=len(envs))
        else:
            envs = self.bindings(plan)
        return construct_answer(query, self.db, in_written_order(envs, query), self.db_name)


_LOREL_BACKENDS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def lorel_sql_backend_for(
    db: "OemDatabase", db_name: str = "DB"
) -> LorelSqlBackend:
    """The cached :class:`LorelSqlBackend` of ``db``, rebuilt when stale."""
    cached = _LOREL_BACKENDS.get(db)
    if cached is None or cached.is_stale() or cached.db_name != db_name:
        cached = LorelSqlBackend(db, db_name)
        _LOREL_BACKENDS[db] = cached
    return cached


def lorel_sql(
    text: "str | LorelQuery", db: "OemDatabase", db_name: str = "DB"
) -> "OemDatabase":
    """Parse and evaluate a Lorel query on the SQL engine.

    The drop-in twin of :func:`repro.lorel.lorel`; raises
    :class:`NotCompilable` when the query is outside the SQL fragment;
    the refusal reaches the caller, nothing falls back.
    """
    query = parse_lorel(text) if isinstance(text, str) else text
    return lorel_sql_backend_for(db, db_name).evaluate(query)


# ---------------------------------------------------------------------------
# UnQL routing.


def unql_sql(query: Query, sources: "Mapping[str, Graph]") -> "Graph":
    """Evaluate an UnQL query with SQL-resolved root-level members.

    The twin of :func:`repro.unql.optimizer.evaluate_with_indexes`: every
    compilable regex member of the primary source's root-level bindings
    is answered by the SQL backend and substituted as a resolved-edge
    annotation; the native evaluator does the rest (nested patterns,
    construction, conditions).  Uncompilable members simply stay native
    -- per-member fallback, never a wrong answer.
    """
    names = [b.source for b in query.bindings if not b.source_is_var]
    if not names:
        return evaluate_query(query, sources)
    primary = names[0]
    backend = sql_backend_for(sources[primary])
    new_bindings = []
    for binding in query.bindings:
        if binding.source_is_var or binding.source != primary:
            new_bindings.append(binding)
            continue
        members = []
        for member in binding.pattern.members:
            targets = None
            if type(member.edge) is RegexEdge:
                try:
                    targets = frozenset(backend.rpq_nodes(member.edge.regex))
                except NotCompilable:
                    targets = None
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
    rewritten = Query(query.construct, tuple(new_bindings), query.conditions)
    return evaluate_query(rewritten, sources)
