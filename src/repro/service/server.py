"""The query service core and its asyncio front-end.

:class:`QueryService` is the transport-free heart of the server: it
owns one immutable :class:`~repro.core.frozen.FrozenGraph` snapshot,
the session table, the admission governor, a shared plan cache, and the
engine dispatch.  Its unit of work is a :class:`QueryTask` whose
:meth:`~QueryTask.steps` generator yields at every traversal superstep
-- the cooperative scheduling point where deadlines, budgets, and
cancellations are honored, and where a front-end interleaves other
work.  Because the core never touches a socket, a thread, or a real
clock, the deterministic harness (:mod:`repro.service.harness`) drives
the *same* code the network server does.

:class:`AsyncQueryServer` is the thin asyncio skin: one TCP connection
per session, length-prefixed JSON frames (:mod:`repro.service.protocol`),
one :class:`asyncio.Task` per query driving ``steps()`` with an
``await`` between supersteps so slow queries never monopolize the loop
and responses stream back in completion order (the protocol matches
them by id).

The typed outcome contract (docs/SERVICE.md):

==============  ==================================================
``ok``          exact answer
``partial``     lower bound -- cancelled or budget-exhausted; carries
                a completeness report
``deadline``    the per-query deadline expired at a checkpoint;
                carries the partial answer and its report
``overloaded``  shed at admission; no work was done
``error``       bad query, open breaker, injected worker fault -- or an
                engine bug, typed ``InternalError`` and logged
==============  ==================================================
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import TYPE_CHECKING, Iterator

from ..automata.plan_cache import PlanCache
from ..automata.product import RpqStepper, interrupted_completeness, rpq_nodes
from ..browse import find_value, where_is
from ..core.builder import to_obj
from ..core.frozen import FrozenGraph, freeze
from ..core.graph import Graph
from ..lorel import evaluate_lorel, lorel, lorel_rows, parse_lorel
from ..obs import QueryProfile
from ..obs.export import metrics_to_dict
from ..resilience import (
    BudgetExhausted,
    CircuitBreaker,
    CircuitOpenError,
    Completeness,
    DeadlineExceeded,
    FaultInjector,
    QueryCancelled,
    ResilienceError,
)
from ..resilience.clock import Clock, WallClock
from ..storage import STORAGE_METRICS
from ..storage.mvcc import SnapshotView
from ..unql import parse_query, unql
from .errors import Overloaded, ProtocolError
from .governor import SERVICE_METRICS, AdmissionGovernor, Ticket
from .protocol import FrameDecoder, encode_frame, validate_request
from .session import Session, SessionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.labels import Label
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer
    from ..storage.mvcc import VersionedGraphStore, WriteBatch

__all__ = [
    "QueryService",
    "QueryTask",
    "AsyncQueryServer",
    "completeness_to_dict",
    "label_from_wire",
    "request_over_socket",
]

_LOG = logging.getLogger(__name__)

#: Engine ops that go through admission (control-plane ops bypass it).
#: ``apply`` is one of them: writes compete for the same worker slots as
#: queries, so a write burst sheds at admission instead of starving reads.
QUERY_OPS = frozenset({"rpq", "lorel", "unql", "find", "apply"})


def label_from_wire(value) -> "Label | str | int | float | bool":
    """Decode a mutation's JSON ``label`` field.

    Scalars follow :meth:`Graph.add_edge` semantics (a plain string is a
    *symbol*); the explicit object form selects the kind, which is the
    only way to send string *data* over the wire.
    """
    from ..core.labels import Label, LabelKind, label_of, sym

    if isinstance(value, dict):
        kind = value.get("kind")
        raw = value.get("value")
        if kind == "symbol":
            return sym(str(raw))
        if kind == "string":
            return Label(LabelKind.STRING, str(raw))
        if kind == "int":
            return Label(LabelKind.INT, int(raw))
        if kind == "real":
            return Label(LabelKind.REAL, float(raw))
        if kind == "bool":
            return Label(LabelKind.BOOL, bool(raw))
        raise ValueError(f"unknown label kind {kind!r}")
    if isinstance(value, str):
        return sym(value)
    if isinstance(value, (bool, int, float)):
        return label_of(value)
    raise ValueError(f"cannot interpret {value!r} as an edge label")


def stage_mutations(batch: "WriteBatch", mutations) -> dict[str, int]:
    """Stage an ``apply`` op's mutation list into ``batch`` (the service
    and ``repro mutate`` share this dialect); returns the batch-local
    names of the nodes it creates."""
    names: dict[str, int] = {}

    def resolve(ref: object) -> int:
        if isinstance(ref, bool) or not isinstance(ref, (int, str)):
            raise ValueError(f"node reference must be an id or a name, got {ref!r}")
        if isinstance(ref, str):
            if ref not in names:
                raise ValueError(f"unknown node name {ref!r}")
            return names[ref]
        return ref

    for mutation in mutations:
        kind = mutation.get("kind")
        if kind == "node":
            node = batch.new_node()
            if mutation.get("name") is not None:
                names[str(mutation["name"])] = node
        elif kind == "edge":
            batch.add_edge(
                resolve(mutation.get("src")),
                label_from_wire(mutation.get("label")),
                resolve(mutation.get("dst")),
            )
        elif kind == "root":
            batch.set_root(resolve(mutation.get("node")))
        else:
            raise ValueError(f"unknown mutation kind {kind!r}")
    return names


def _find_value_of(query: str) -> object:
    """A ``find`` request's search value: ``query`` as JSON, else the text."""
    try:
        return json.loads(query)
    except json.JSONDecodeError:
        return query


def completeness_to_dict(report: Completeness) -> dict[str, object]:
    """The wire form of a completeness report (stable field order)."""
    return {
        "complete": report.complete,
        "retries": report.retries,
        "lost": report.lost,
        "failures": [
            {
                "kind": f.kind,
                "key": f.key,
                "attempts": f.attempts,
                "error": f.error,
                "lost": f.lost,
            }
            for f in report.failures
        ],
    }


class QueryTask:
    """One admitted (or shed) request moving through the worker pool.

    ``view`` is the snapshot the task was *submitted* against, pinned at
    admission time: however long the task waits in the queue, and
    however many commits land meanwhile, it executes against exactly
    that version -- an in-flight query can never observe a torn (or
    even a newer) graph.
    """

    __slots__ = ("service", "session", "request", "ticket", "response", "view")

    def __init__(
        self,
        service: "QueryService",
        session: Session,
        request: dict,
        ticket: "Ticket | None",
        response: "dict | None" = None,
    ) -> None:
        self.service = service
        self.session = session
        self.request = request
        self.ticket = ticket
        self.response = response
        self.view = None

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def request_id(self) -> int:
        return self.request["id"]

    def steps(self) -> Iterator[str]:
        """Drive this task cooperatively; yields between supersteps.

        Yields ``"waiting"`` while queued behind a full worker pool and
        ``"step"`` after each completed superstep.  When the generator
        is exhausted, :attr:`response` holds the typed response.  All
        admission release and session untracking happens here, on every
        path -- a task dropped mid-generator by a dying connection still
        frees its slot via the front-end's ``close`` handling.
        """
        if self.done:
            return
        ticket = self.ticket
        assert ticket is not None  # shed tasks arrive with a response
        while not ticket.admitted and not ticket.released:
            yield "waiting"
        try:
            yield from self.service._execute(self)
        finally:
            self.service._finish(self)


class QueryService:
    """Engines + sessions + governor over one frozen snapshot.

    With a ``store`` (a :class:`~repro.storage.VersionedGraphStore`),
    the service additionally accepts ``apply`` write requests and the
    "one frozen snapshot" becomes "one frozen snapshot *per version*":
    every query pins the version current at submission, writers never
    block readers, and a plain-graph service is simply the degenerate
    store-less case whose single version never changes.
    """

    def __init__(
        self,
        graph: "Graph | FrozenGraph | None" = None,
        *,
        store: "VersionedGraphStore | None" = None,
        clock: "Clock | None" = None,
        max_inflight: int = 8,
        max_queue: int = 16,
        max_sessions: int = 64,
        default_deadline: "float | None" = None,
        default_budget: "int | None" = None,
        metrics: "MetricsRegistry" = SERVICE_METRICS,
        tracer: "Tracer | None" = None,
        injector: "FaultInjector | None" = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
    ) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        self.store = store
        if store is not None:
            if graph is not None:
                raise ValueError("pass a graph or a store, not both")
            self._static_view: "SnapshotView | None" = None
        elif graph is not None:
            self._static_view = SnapshotView(freeze(graph), 0)
        else:
            raise ValueError("QueryService needs a graph or a store")
        self.metrics = metrics
        self.tracer = tracer
        self.injector = injector
        self.governor = AdmissionGovernor(
            max_inflight,
            max_queue,
            clock=self.clock,
            default_deadline=default_deadline,
            default_budget=default_budget,
            metrics=metrics,
            events=tracer.event_log() if tracer is not None else None,
        )
        self.sessions = SessionManager(max_sessions)
        self.plan_cache = PlanCache(name="service_plan_cache")
        self._breakers = {
            op: CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                clock=self.clock,
                key=f"worker:{op}",
            )
            for op in QUERY_OPS
        }
        self._status_counters = {
            status: metrics.counter(f"service_{status}")
            for status in ("ok", "partial", "deadline", "overloaded", "error")
        }
        self._cancelled_counter = metrics.counter("service_cancelled")
        self._internal_errors = metrics.counter("service_internal_error")
        self._requests = metrics.counter("service_requests")
        self._ops_histogram = metrics.histogram("service_query_ops")
        self._sql_answered = metrics.counter("service_sql_answered")
        self._sql_fallback = metrics.counter("service_sql_fallback")

    # -- snapshots ---------------------------------------------------------------

    def current_view(self) -> SnapshotView:
        """The newest version's pinned read view."""
        if self.store is not None:
            return self.store.view()
        assert self._static_view is not None
        return self._static_view

    @property
    def frozen(self) -> FrozenGraph:
        """The current frozen snapshot (per-version cached with a store)."""
        return self.current_view().frozen

    # -- connection lifecycle ----------------------------------------------------

    def connect(self) -> Session:
        """Open a session (raises :class:`Overloaded` at the cap)."""
        return self.sessions.open(self.clock.now())

    def disconnect(self, session: Session) -> int:
        """Close a session, cooperatively cancelling its live queries."""
        return self.sessions.close(session)

    # -- request intake ----------------------------------------------------------

    def submit(self, session: Session, request: dict) -> QueryTask:
        """Admit one request; always returns a task, never raises.

        Control-plane ops (``ping`` / ``stats`` / ``cancel``) answer
        immediately and bypass the governor -- a cancel that could be
        shed by the very overload it is trying to relieve would be
        useless.  Query ops pass admission: shed requests come back as
        already-finished tasks carrying the ``overloaded`` response.
        """
        self._requests.inc()
        try:
            validate_request(request)
        except ProtocolError as exc:
            rid = request.get("id") if isinstance(request.get("id"), int) else 0
            return QueryTask(
                self, session, {"id": rid, "op": "invalid"}, None,
                self._respond(rid, "error", error=str(exc), error_type="ProtocolError"),
            )
        rid = request["id"]
        op = request["op"]
        if op == "ping":
            return QueryTask(
                self, session, request, None, self._respond(rid, "ok", result="pong")
            )
        if op == "stats":
            return QueryTask(
                self, session, request, None,
                self._respond(rid, "ok", result=self.stats()),
            )
        if op == "cancel":
            found = session.cancel(request["target"])
            if found:
                self._cancelled_counter.inc()
            return QueryTask(
                self, session, request, None,
                self._respond(rid, "ok", result={"cancelled": found}),
            )
        try:
            ticket = self.governor.admit(
                f"s{session.session_id}:r{rid}:{op}",
                deadline=request.get("deadline"),
                budget=request.get("budget"),
            )
        except Overloaded as exc:
            return QueryTask(
                self, session, request, None,
                self._respond(
                    rid, "overloaded", reason=exc.reason, retry_after=exc.retry_after
                ),
            )
        session.track(rid, ticket.control)
        task = QueryTask(self, session, request, ticket)
        if op != "apply":
            # pin the snapshot NOW: commits that land while this task
            # waits in the queue must not change what it reads
            task.view = self.current_view()
        return task

    # -- execution ---------------------------------------------------------------

    def _execute(self, task: QueryTask) -> Iterator[str]:
        """Run one admitted query; fills ``task.response``; yields per step."""
        request = task.request
        rid, op = request["id"], request["op"]
        control = task.ticket.control  # type: ignore[union-attr]
        stepper: "RpqStepper | None" = None
        span_cm = (
            self.tracer.span("serve", op=op, request_id=rid, key=control.key)
            if self.tracer is not None
            else None
        )
        span = span_cm.__enter__() if span_cm is not None else None
        try:
            # one checkpoint before any work: a query whose deadline
            # lapsed in the queue, or that was cancelled while waiting,
            # fails here without touching an engine
            control.checkpoint(0)
            self._guard_worker(op)
            if op == "apply":
                task.response = self._apply(rid, request)
            elif (
                op == "rpq"
                and not request.get("profile")
                and request.get("engine", "native") == "native"
            ):
                stepper = RpqStepper(
                    task.view.frozen, request["query"], plan_cache=self.plan_cache
                )
                control.checkpoint(0)
                while True:
                    before = stepper.ops
                    more = stepper.step()
                    control.checkpoint(stepper.ops - before)
                    if not more:
                        break
                    yield "step"
                task.response = self._respond(
                    rid,
                    "ok",
                    result=sorted(stepper.results),
                    ops=stepper.ops,
                    supersteps=stepper.supersteps,
                )
            else:
                task.response = self._run_oneshot(rid, op, request, task.view)
        except QueryCancelled as exc:
            task.response = self._interrupted(rid, "partial", "cancelled", exc, stepper)
            self._cancelled_counter.inc()
        except DeadlineExceeded as exc:
            task.response = self._interrupted(rid, "deadline", "deadline", exc, stepper)
        except BudgetExhausted as exc:
            task.response = self._interrupted(rid, "partial", "budget", exc, stepper)
        except (ResilienceError, ValueError, KeyError, RecursionError) as exc:
            # engine-level failures: syntax errors, open breakers,
            # injected faults, bad arguments -- typed, never fatal
            task.response = self._respond(
                rid, "error", error=str(exc), error_type=type(exc).__name__
            )
        except Exception as exc:
            # anything else is a bug in an engine, not in the request --
            # but the client is still owed a response frame: an exception
            # escaping here would kill the front-end's driver task and
            # leave the caller waiting on its own socket timeout
            self._internal_errors.inc()
            _LOG.exception("internal error serving request %s (%s)", rid, op)
            task.response = self._respond(
                rid, "error", error=f"{type(exc).__name__}: {exc}", error_type="InternalError"
            )
        finally:
            if stepper is not None:
                self._ops_histogram.observe(stepper.ops)
            if span is not None:
                status = task.response["status"] if task.response else "dropped"
                span.annotate(
                    status=status,
                    ops=stepper.ops if stepper is not None else 0,
                    checkpoints=control.checkpoints,
                )
                span_cm.__exit__(None, None, None)  # type: ignore[union-attr]

    def _guard_worker(self, op: str) -> None:
        """The worker-pool fault boundary: breaker-guarded fault injection.

        With an injector configured (chaos tests), each query execution
        is one contact with the ``worker:<op>`` dependency; repeated
        injected faults trip the per-engine breaker so later queries
        fail fast with :class:`~repro.resilience.CircuitOpenError`
        instead of paying the fault path every time.
        """
        breaker = self._breakers[op]
        if not breaker.allow():
            raise CircuitOpenError(f"worker:{op}")
        if self.injector is None:
            breaker.record_success()
            return
        try:
            self.injector.check(f"worker:{op}")
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()

    def _run_oneshot(
        self, rid: int, op: str, request: dict, view: SnapshotView
    ) -> dict:
        """The non-checkpointed engines, one call each.

        A ``"profile": true`` request hands the library entry point a
        :class:`~repro.obs.QueryProfile` and runs it with no plan cache,
        on the native engine -- so its operation counts are
        byte-identical to a direct library call, the golden-parity
        contract the obs suite pins; the
        response says ``"engine": "native"`` so a client that asked for
        another engine can tell which one its profile describes.
        One-shot work is not interruptible mid-engine; the deadline was
        checked at the entry checkpoint and the answer, once computed, is
        returned even if it finished late (dropping finished work helps
        no one).  Every engine reads ``view`` -- the snapshot pinned at
        submission -- never the live graph.
        """
        query = request.get("query", "")
        if request.get("profile"):
            return self._profiled_oneshot(rid, op, query, view)
        engine = str(request.get("engine", "native"))
        if engine in ("sql", "auto") and op in ("rpq", "lorel", "unql"):
            response = self._sql_oneshot(rid, op, query, engine, view)
            if response is not None:
                return response
        if op == "rpq":
            # an auto rpq that fell back from SQL (plain native rpq
            # streams through the stepper and never reaches here)
            results = rpq_nodes(view.frozen, query, plan_cache=self.plan_cache)
            return self._respond(rid, "ok", result=sorted(results))
        if op == "lorel":
            return self._respond(rid, "ok", result=lorel_rows(lorel(query, view.oem)))
        if op == "unql":
            return self._respond(
                rid, "ok", result=to_obj(unql(query, db=view.frozen))
            )
        return self._respond(rid, "ok", result=where_is(view.frozen, _find_value_of(query)))

    def _profiled_oneshot(self, rid: int, op: str, query: str, view: SnapshotView) -> dict:
        """One query op with its operation counts (see :meth:`_run_oneshot`)."""
        profile = QueryProfile()
        result: object
        if op == "rpq":
            result = sorted(rpq_nodes(view.frozen, query, profile=profile))
        elif op == "lorel":
            profile.query = query  # evaluate_lorel sees the AST, not the text
            result = lorel_rows(evaluate_lorel(parse_lorel(query), view.oem, profile=profile))
        elif op == "unql":
            result = to_obj(unql(query, profile=profile, db=view.frozen, DB=view.frozen))
        else:
            findings = find_value(view.frozen, _find_value_of(query), profile=profile)
            result = [str(f) for f in findings]
        return self._respond(
            rid, "ok", result=result, profile=profile.as_dict(), engine="native"
        )

    def _sql_oneshot(
        self, rid: int, op: str, query: str, engine: str, view: SnapshotView
    ) -> "dict | None":
        """One query op on the SQL engine, or ``None`` to fall back native.

        ``engine == "auto"`` turns :class:`NotCompilable` into a counted
        native fallback; ``engine == "sql"`` lets it propagate (it is a
        ``ValueError``, so the caller's fault boundary returns a typed
        ``error`` response -- never a wrong answer).  Successful SQL
        answers carry ``engine: "sql"`` so clients can tell who served.
        """
        from ..sqlbackend import NotCompilable, lorel_sql_backend_for, sql_backend_for, unql_sql

        backend = sql_backend_for(view.frozen)
        try:
            if op == "rpq":
                # auto mirrors the planner policy: sargable plans go to
                # SQL, fixpoint (closure) plans stay on the native kernel
                if engine == "auto" and not backend.favors(query):
                    self._sql_fallback.inc()
                    return None
                nodes = backend.rpq_nodes(query, tracer=self.tracer)
                result: object = sorted(nodes)
            elif op == "lorel":
                answer = lorel_sql_backend_for(view.oem).evaluate(
                    parse_lorel(query), tracer=self.tracer
                )
                result = lorel_rows(answer)
            else:  # unql: per-member routing, uncompilable members stay native
                result = to_obj(
                    unql_sql(
                        parse_query(query),
                        {"db": view.frozen, "DB": view.frozen},
                        backend=backend,
                    )
                )
        except NotCompilable:
            if engine == "sql":
                raise
            self._sql_fallback.inc()
            return None
        self._sql_answered.inc()
        return self._respond(rid, "ok", result=result, engine="sql")

    # -- the write path ----------------------------------------------------------

    def _apply(self, rid: int, request: dict) -> dict:
        """Execute one admitted ``apply`` request against the store.

        Mutations stage into a single :class:`~repro.storage.WriteBatch`
        -- one commit, one WAL record, all-or-nothing.  ``sync: false``
        defers the fsync to the next synced commit (group commit); the
        response reports both the new ``version`` and the ``acked``
        horizon so clients can tell what is durable.
        """
        if self.store is None:
            return self._respond(
                rid,
                "error",
                error="read-only service: no write store attached",
                error_type="ReadOnly",
            )
        batch = self.store.batch()
        names = stage_mutations(batch, request["mutations"])
        version = batch.commit(sync=bool(request.get("sync", True)))
        return self._respond(
            rid,
            "ok",
            result={
                "version": version,
                "acked": self.store.acked_version,
                "nodes": names,
            },
        )

    def _interrupted(
        self,
        rid: int,
        status: str,
        reason: str,
        exc: Exception,
        stepper: "RpqStepper | None",
    ) -> dict:
        """A typed partial/deadline response from a checkpoint interrupt."""
        results = sorted(stepper.results) if stepper is not None else []
        lost = stepper.frontier_size if stepper is not None else 0
        report = interrupted_completeness(exc, getattr(exc, "key", "query"), lost)
        return self._respond(
            rid,
            status,
            reason=reason,
            result=results,
            completeness=completeness_to_dict(report),
            error=str(exc),
        )

    def _respond(self, rid: int, status: str, **fields: object) -> dict:
        counter = self._status_counters.get(status)
        if counter is not None:
            counter.inc()
        return {"id": rid, "status": status, **fields}

    def _finish(self, task: QueryTask) -> None:
        if task.ticket is not None:
            self.governor.release(task.ticket)
        task.session.untrack(task.request_id)
        if task.response is None:  # generator dropped mid-flight
            task.response = self._respond(
                task.request_id, "error", error="query dropped", error_type="Dropped"
            )

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """The ``stats`` op payload: admission, sessions, snapshot, metrics
        (storage's too: views frozen vs derived, SQL images built vs carried).

        A read-only diagnostic: it reports the store's counts and the
        snapshot some reader already built (``snapshot_id`` is ``None``
        when the newest version has not been read yet) -- it never
        freezes or derives one itself.
        """
        store = self.store
        view = store.cached_view if store is not None else self._static_view
        counts = store.stats() if store is not None else {
            "nodes": view.frozen.num_nodes, "edges": view.frozen.num_edges
        }
        payload: dict[str, object] = {
            "graph": {
                "nodes": counts["nodes"],
                "edges": counts["edges"],
                "snapshot_id": view.frozen.snapshot_id if view is not None else None,
            },
            "governor": self.governor.snapshot(),
            "sessions": self.sessions.snapshot(),
            "plan_cache": self.plan_cache.stats(),
            "breakers": {op: b.state for op, b in sorted(self._breakers.items())},
            "metrics": metrics_to_dict(self.metrics),
            "storage": metrics_to_dict(STORAGE_METRICS),
        }
        if store is not None:
            payload["store"] = counts
        return payload


class _ReadIntoProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """A stream protocol whose transport reads into one buffer per connection.

    A plain stream transport calls ``recv(256 KiB)`` on every readable
    event.  glibc serves that size by ``mmap`` until some earlier free of
    a larger mapped block raises its threshold, so whether each read
    costs an ``mmap``/``munmap`` pair and two page faults (~20 us) would
    depend on what the process happened to import.  ``recv_into`` a
    fixed buffer costs neither.
    """

    def __init__(self, reader: asyncio.StreamReader, on_connect, loop) -> None:
        super().__init__(reader, on_connect, loop=loop)
        self._chunk = memoryview(bytearray(65536))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(bytes(self._chunk[:nbytes]))


class AsyncQueryServer:
    """The asyncio TCP front-end over a :class:`QueryService`.

    One connection = one session; one in-flight request = one asyncio
    task driving :meth:`QueryTask.steps` with a zero sleep between
    supersteps, so many queries share the loop fairly.  Responses are
    written as they finish -- out of order under concurrency, which is
    why the protocol matches by ``id``.
    """

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None

    @property
    def bound_port(self) -> int:
        """The actual listening port (after :meth:`start` with port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _ReadIntoProtocol(
                asyncio.StreamReader(loop=loop), self._handle_connection, loop
            ),
            self.host,
            self.port,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            session = self.service.connect()
        except Overloaded as exc:
            writer.write(
                encode_frame(
                    {"id": 0, "status": "overloaded", "reason": exc.reason,
                     "retry_after": exc.retry_after}
                )
            )
            await writer.drain()
            writer.close()
            return
        decoder = FrameDecoder()
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def drive(task: QueryTask) -> None:
            for _ in task.steps():
                await asyncio.sleep(0)
            async with write_lock:
                writer.write(encode_frame(task.response))
                await writer.drain()

        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    frames = list(decoder.feed(data))
                except ProtocolError as exc:
                    async with write_lock:
                        writer.write(
                            encode_frame(
                                {"id": 0, "status": "error", "error": str(exc),
                                 "error_type": "ProtocolError"}
                            )
                        )
                        await writer.drain()
                    break  # framing is unrecoverable; drop the connection
                for frame in frames:
                    task = self.service.submit(session, frame)
                    runner = asyncio.ensure_future(drive(task))
                    pending.add(runner)
                    runner.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.service.disconnect(session)
            for runner in list(pending):
                runner.cancel()
            # close without awaiting the handshake: the handler may be
            # cancelled at loop shutdown, and awaiting here would turn
            # that into a spurious error in the transport callback
            writer.close()


async def request_over_socket(
    host: str, port: int, requests: "list[dict]"
) -> "list[dict]":
    """A minimal client: send requests, await as many responses.

    Used by the ``repro query`` CLI and the socket tests; responses come
    back in completion order, matched to requests by ``id``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request in requests:
            writer.write(encode_frame(request))
        await writer.drain()
        decoder = FrameDecoder()
        responses: list[dict] = []
        while len(responses) < len(requests):
            data = await reader.read(65536)
            if not data:
                break
            responses.extend(decoder.feed(data))
        return responses
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
