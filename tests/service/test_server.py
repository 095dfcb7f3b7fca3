"""Chaos suite for the query service: the acceptance contract.

Every test drives the *same* :class:`QueryService` core the asyncio
front-end uses, through the deterministic in-process harness on a
simulated clock -- so "the deadline expires between superstep 3 and 4"
is arranged exactly, not raced.  The server's contract under test:
every request gets exactly one typed response (``ok`` / ``partial`` /
``deadline`` / ``overloaded`` / ``error``), the server never crashes,
and it never queues unboundedly.
"""

import logging

import pytest

from repro.automata.plan_cache import PLAN_METRICS
from repro.automata.product import rpq_nodes
from repro.core.builder import to_obj
from repro.core.graph import Graph
from repro.datasets import generate_movies
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, SimulatedClock
from repro.service import InProcessHarness, Overloaded, QueryService
from repro.storage.serializer import STORAGE_METRICS
from repro.unql import unql


def chain_graph(length: int = 60) -> Graph:
    """A ``next``-chain: ``next*`` takes exactly ``length`` supersteps."""
    g = Graph()
    nodes = [g.new_node() for _ in range(length + 1)]
    g.set_root(nodes[0])
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, "next", b)
    return g


def service(graph=None, **kw) -> QueryService:
    kw.setdefault("clock", SimulatedClock())
    # a private registry per test: counter assertions must not see the
    # shared process-wide SERVICE_METRICS accumulating across the suite
    kw.setdefault("metrics", MetricsRegistry())
    return QueryService(graph if graph is not None else generate_movies(20, seed=11), **kw)


class TickingClock(SimulatedClock):
    """A simulated clock that moves ``tick`` seconds each time it is read,
    so time passes inside one-shot work that never yields a step."""

    def __init__(self, tick: float) -> None:
        super().__init__()
        self.tick = tick

    def now(self) -> float:
        self.advance(self.tick)
        return super().now()


#: an ``engine: "sql"`` closure whose statement runs for hundreds of
#: progress-handler intervals on movies-200
SQL_CLOSURE = "Entry.Movie.(References)*.Title"


# -- the happy path, every engine --------------------------------------------------


class TestEngines:
    def test_rpq_matches_library(self) -> None:
        svc = service()
        harness = InProcessHarness(svc)
        response = harness.run_one({"id": 1, "op": "rpq", "query": "Entry.Movie.Title"})
        assert response["status"] == "ok"
        assert response["result"] == sorted(rpq_nodes(svc.frozen, "Entry.Movie.Title"))
        assert response["ops"] > 0 and response["supersteps"] >= 3

    def test_lorel(self) -> None:
        harness = InProcessHarness(service())
        response = harness.run_one(
            {"id": 1, "op": "lorel", "query": "select m.Title from DB.Entry.Movie m"}
        )
        assert response["status"] == "ok"
        assert len(response["result"]) > 0

    def test_unql(self) -> None:
        harness = InProcessHarness(service())
        response = harness.run_one(
            {"id": 1, "op": "unql",
             "query": r"select \t where {Entry: {Movie: {Title: \t}}} in db"}
        )
        assert response["status"] == "ok"

    def test_unql_root_edges_walk_the_kernel(self) -> None:
        """The served UnQL template answers from the kernel and leaves no
        per-snapshot planner behind on the pinned snapshot."""
        graph = generate_movies(200, seed=7)
        svc = service(graph)
        harness = InProcessHarness(svc)
        query = r"select \t where {Entry.Movie.Title: \t} in db"
        response = harness.run_one({"id": 1, "op": "unql", "query": query})
        assert response["status"] == "ok"
        assert response["result"] == to_obj(unql(query, db=graph))
        assert "planner" not in svc.current_view().frozen._ext

    def test_a_chain_rpq_pulls_only_from_a_probe_index_a_find_built(self) -> None:
        """On a cold snapshot an exact chain pushes and builds nothing; once a
        ``find`` has built the probe index, the same chain takes the label
        side for some of its states and answers the same."""
        graph = generate_movies(200, seed=7)
        harness = InProcessHarness(service(graph))
        built = STORAGE_METRICS.counter("probe_index_built")
        pulled = PLAN_METRICS.counter("label_side_states")
        before = (built.value, pulled.value)
        request = {"id": 1, "op": "rpq", "query": "Entry.Movie.Title"}
        cold = harness.run_one(request)
        assert cold["result"] == sorted(rpq_nodes(graph, "Entry.Movie.Title"))
        assert (built.value, pulled.value) == before
        assert harness.run_one({"id": 2, "op": "find", "query": '"Bogart"'})["status"] == "ok"
        assert built.value == before[0] + 1
        warm = harness.run_one({**request, "id": 3})
        assert warm["result"] == cold["result"]
        assert warm["supersteps"] == cold["supersteps"]
        assert pulled.value > before[1]

    def test_find(self) -> None:
        svc = service()
        harness = InProcessHarness(svc)
        response = harness.run_one({"id": 1, "op": "find", "query": "Title"})
        assert response["status"] == "ok"

    def test_ping_and_stats_bypass_admission(self) -> None:
        # governor with zero capacity to queue: control ops still answer
        harness = InProcessHarness(service(max_inflight=1, max_queue=0))
        assert harness.run_one({"id": 1, "op": "ping"})["result"] == "pong"
        stats = harness.run_one({"id": 2, "op": "stats"})["result"]
        assert stats["graph"]["nodes"] > 0
        assert stats["governor"]["max_inflight"] == 1
        assert "service_requests" in stats["metrics"]

    def test_bad_query_is_typed_error_not_crash(self) -> None:
        harness = InProcessHarness(service())
        response = harness.run_one({"id": 1, "op": "rpq", "query": "((("})
        assert response["status"] == "error"
        assert response["error_type"]
        # the connection (session) survives; the next query runs fine
        assert harness.run_one({"id": 2, "op": "ping"})["status"] == "ok"

    def test_invalid_request_is_typed_error(self) -> None:
        harness = InProcessHarness(service())
        response = harness.run_one({"id": 3, "op": "teleport"})
        assert response["status"] == "error"
        assert response["error_type"] == "ProtocolError"


# -- deadlines ---------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_expires_mid_traversal(self) -> None:
        clock = SimulatedClock()
        svc = service(chain_graph(60), clock=clock)
        # each superstep costs 0.02 simulated seconds; 0.1s of deadline
        # admits ~5 of the 60 supersteps the chain needs
        harness = InProcessHarness(svc, advance_per_step=0.02)
        response = harness.run_one(
            {"id": 1, "op": "rpq", "query": "next*", "deadline": 0.1}
        )
        assert response["status"] == "deadline"
        report = response["completeness"]
        assert report["complete"] is False
        assert report["failures"][0]["kind"] == "deadline"
        assert report["lost"] >= 1  # the dropped frontier is reported
        # the partial answer is a non-empty lower bound, not the full chain
        assert 0 < len(response["result"]) < 61

    def test_partial_result_is_monotone_lower_bound(self) -> None:
        clock = SimulatedClock()
        svc = service(chain_graph(60), clock=clock)
        harness = InProcessHarness(svc, advance_per_step=0.02)
        response = harness.run_one(
            {"id": 1, "op": "rpq", "query": "next*", "deadline": 0.1}
        )
        exact = rpq_nodes(svc.frozen, "next*")
        assert set(response["result"]) <= exact

    def test_deadline_lapsed_in_queue_fails_first_checkpoint(self) -> None:
        clock = SimulatedClock()
        svc = service(chain_graph(40), clock=clock, max_inflight=1, max_queue=2)
        harness = InProcessHarness(svc, advance_per_step=0.05)
        # the slow query occupies the only slot for 40 * 0.05 = 2.0s;
        # the queued one has 0.2s of deadline and must fail *without
        # scanning a single edge*
        slow = harness.submit({"id": 1, "op": "rpq", "query": "next*"})
        stale = harness.submit(
            {"id": 2, "op": "rpq", "query": "next*", "deadline": 0.2}
        )
        assert slow is not stale
        responses = harness.run()
        assert responses[1]["status"] == "ok"
        assert responses[2]["status"] == "deadline"
        assert responses[2]["result"] == []  # no work was done stale

    def test_sql_statement_stops_at_the_deadline(self) -> None:
        """An ``engine: "sql"`` statement checkpoints from sqlite's progress
        handler: the deadline stops it at the first interval past expiry."""
        svc = service(generate_movies(200, seed=7), clock=TickingClock(0.01))
        harness = InProcessHarness(svc)
        task = harness.submit(
            {"id": 1, "op": "rpq", "query": SQL_CLOSURE, "engine": "sql", "deadline": 0.1}
        )
        response = harness.run()[1]
        assert response["status"] == "deadline" and response["result"] == []
        assert response["completeness"]["failures"][0]["kind"] == "deadline"
        # each checkpoint reads the clock once, so it expires within ten
        # intervals -- not the hundreds the statement needs
        assert 0 < task.ticket.control.ops <= 10
        plain = harness.run_one({"id": 2, "op": "rpq", "query": SQL_CLOSURE, "engine": "sql"})
        assert plain["status"] == "ok"
        assert plain["result"] == sorted(rpq_nodes(svc.frozen, SQL_CLOSURE))

    def test_no_deadline_runs_to_completion(self) -> None:
        svc = service(chain_graph(60))
        harness = InProcessHarness(svc, advance_per_step=1000.0)  # time is irrelevant
        response = harness.run_one({"id": 1, "op": "rpq", "query": "next*"})
        assert response["status"] == "ok"
        assert len(response["result"]) == 61


# -- budgets -----------------------------------------------------------------------


class TestBudgets:
    def test_budget_exhaustion_returns_partial(self) -> None:
        svc = service(chain_graph(60))
        harness = InProcessHarness(svc)
        response = harness.run_one(
            {"id": 1, "op": "rpq", "query": "next*", "budget": 10}
        )
        assert response["status"] == "partial"
        assert response["reason"] == "budget"
        assert response["completeness"]["failures"][0]["kind"] == "budget"
        assert 0 < len(response["result"]) < 61

    def test_sufficient_budget_is_exact(self) -> None:
        svc = service(chain_graph(30))
        harness = InProcessHarness(svc)
        response = harness.run_one(
            {"id": 1, "op": "rpq", "query": "next*", "budget": 10_000}
        )
        assert response["status"] == "ok"
        assert len(response["result"]) == 31

    def test_sql_statement_stops_at_the_budget(self) -> None:
        """SQL ops are progress-handler intervals: ``budget: 1`` stops the
        statement at the second one, and the answer is partial with no rows."""
        svc = service(generate_movies(200, seed=7))
        harness = InProcessHarness(svc)
        task = harness.submit(
            {"id": 1, "op": "rpq", "query": SQL_CLOSURE, "engine": "sql", "budget": 1}
        )
        response = harness.run()[1]
        assert response["status"] == "partial" and response["reason"] == "budget"
        assert response["result"] == []
        assert task.ticket.control.ops == 2
        # the handler went with the request: the image runs the statement
        # to the end outside one, and the next request answers in full
        expected = rpq_nodes(svc.frozen, SQL_CLOSURE)
        assert svc.frozen._ext["sqlbackend"].rpq_nodes(SQL_CLOSURE) == expected
        again = harness.run_one({"id": 2, "op": "rpq", "query": SQL_CLOSURE, "engine": "sql"})
        assert again["status"] == "ok" and again["result"] == sorted(expected)

    def test_auto_engine_rpq_is_bounded(self) -> None:
        """``"engine": "auto"`` is the native stepper: it charges the budget
        and reports its work, like a request that names no engine."""
        svc = service(generate_movies(200, seed=7))
        harness = InProcessHarness(svc)
        query = "Entry.Movie.Director"
        response = harness.run_one(
            {"id": 1, "op": "rpq", "query": query, "engine": "auto", "budget": 1}
        )
        assert response["status"] == "partial" and response["reason"] == "budget"
        auto = harness.run_one({"id": 2, "op": "rpq", "query": query, "engine": "auto"})
        plain = harness.run_one({"id": 3, "op": "rpq", "query": query})
        assert auto["status"] == "ok" and "engine" not in auto
        assert auto["ops"] == plain["ops"] > 0
        assert auto["supersteps"] == plain["supersteps"] >= 3
        assert auto["result"] == plain["result"] == sorted(rpq_nodes(svc.frozen, query))
        assert svc.metrics.counter("service_sql_answered").value == 0


# -- cooperative cancellation ------------------------------------------------------


class TestCancellation:
    def test_cancel_mid_query(self) -> None:
        svc = service(chain_graph(60))
        cancelled_at = []

        def chaos(task, step_count):
            if step_count == 5 and not cancelled_at:
                cancelled_at.append(step_count)
                ack = harness.cancel(task.request_id)
                assert ack["status"] == "ok"
                assert ack["result"] == {"cancelled": True}

        harness = InProcessHarness(svc, on_step=chaos)
        response = harness.run_one({"id": 7, "op": "rpq", "query": "next*"})
        assert cancelled_at == [5]
        assert response["status"] == "partial"
        assert response["reason"] == "cancelled"
        assert response["completeness"]["failures"][0]["kind"] == "cancelled"
        assert 0 < len(response["result"]) < 61

    def test_cancel_unknown_target_acks_false(self) -> None:
        harness = InProcessHarness(service())
        ack = harness.cancel(999)
        assert ack["status"] == "ok" and ack["result"] == {"cancelled": False}

    def test_disconnect_cancels_live_queries(self) -> None:
        svc = service(chain_graph(60))
        harness = InProcessHarness(svc)
        harness.submit({"id": 1, "op": "rpq", "query": "next*"})
        flagged = svc.disconnect(harness.session)
        assert flagged == 1
        responses = harness.run()
        assert responses[1]["status"] == "partial"
        assert responses[1]["reason"] == "cancelled"

    def test_cancel_after_completion_is_a_clean_no(self) -> None:
        harness = InProcessHarness(service())
        harness.run_one({"id": 1, "op": "rpq", "query": "Entry"})
        assert harness.cancel(1)["result"] == {"cancelled": False}


# -- overload shedding -------------------------------------------------------------


class TestOverload:
    def test_burst_sheds_typed_beyond_bounds(self) -> None:
        svc = service(chain_graph(20), max_inflight=2, max_queue=2)
        harness = InProcessHarness(svc)
        tasks = harness.submit_all(
            [{"id": i, "op": "rpq", "query": "next*"} for i in range(8)]
        )
        assert len(tasks) == 8
        # sheds answered instantly -- no work, no queue growth
        shed_now = [t for t in tasks if t.done]
        assert len(shed_now) == 4
        for t in shed_now:
            assert t.response["status"] == "overloaded"
            assert t.response["reason"] == "queue_full"
            assert t.response["retry_after"] > 0
        responses = harness.run()
        statuses = sorted(r["status"] for r in responses.values())
        assert statuses == ["ok"] * 4 + ["overloaded"] * 4
        snap = svc.governor.snapshot()
        assert snap["shed"] == 4 and snap["inflight"] == 0

    def test_bounded_queue_under_sustained_load(self) -> None:
        svc = service(chain_graph(10), max_inflight=1, max_queue=2)
        harness = InProcessHarness(svc)
        max_depth = 0

        def watch(task, step_count):
            nonlocal max_depth
            max_depth = max(max_depth, svc.governor.queue_depth)

        harness.on_step = watch
        harness.submit_all(
            [{"id": i, "op": "rpq", "query": "next*"} for i in range(30)]
        )
        responses = harness.run()
        assert len(responses) == 30  # one typed response each, always
        assert max_depth <= 2
        ok = sum(1 for r in responses.values() if r["status"] == "ok")
        shed = sum(1 for r in responses.values() if r["status"] == "overloaded")
        assert ok == 3 and shed == 27

    def test_session_table_sheds_at_cap(self) -> None:
        svc = service(max_sessions=2)
        svc.connect()
        svc.connect()
        with pytest.raises(Overloaded) as exc_info:
            svc.connect()
        assert exc_info.value.reason == "sessions_full"

    def test_released_slot_admits_next_waiter(self) -> None:
        svc = service(chain_graph(10), max_inflight=1, max_queue=1)
        harness = InProcessHarness(svc)
        harness.submit_all(
            [{"id": 1, "op": "rpq", "query": "next*"},
             {"id": 2, "op": "rpq", "query": "next*"}]
        )
        responses = harness.run()
        assert responses[1]["status"] == "ok" and responses[2]["status"] == "ok"


# -- fault injection and the breaker ----------------------------------------------


class TestWorkerFaults:
    def test_injected_fault_is_typed_error(self) -> None:
        clock = SimulatedClock()
        injector = FaultInjector(seed=3, flaky={"worker:rpq": 1}, clock=clock)
        harness = InProcessHarness(service(clock=clock, injector=injector))
        first = harness.run_one({"id": 1, "op": "rpq", "query": "Entry"})
        assert first["status"] == "error"
        assert first["error_type"] == "InjectedFault"
        second = harness.run_one({"id": 2, "op": "rpq", "query": "Entry"})
        assert second["status"] == "ok"  # the fault was transient

    def test_permanent_outage_trips_breaker(self) -> None:
        clock = SimulatedClock()
        injector = FaultInjector(seed=3, outages={"worker:rpq"}, clock=clock)
        svc = service(
            clock=clock, injector=injector, breaker_threshold=3, breaker_cooldown=60.0
        )
        harness = InProcessHarness(svc)
        responses = [
            harness.run_one({"id": i, "op": "rpq", "query": "Entry"})
            for i in range(1, 7)
        ]
        assert [r["error_type"] for r in responses[:3]] == ["InjectedFault"] * 3
        # breaker now open: the dead worker is not contacted again
        assert [r["error_type"] for r in responses[3:]] == ["CircuitOpenError"] * 3
        assert injector.calls("worker:rpq") == 3  # the documented trip bound
        assert svc.stats()["breakers"]["rpq"] == "open"

    def test_breaker_half_open_probe_recovers(self) -> None:
        clock = SimulatedClock()
        injector = FaultInjector(seed=3, flaky={"worker:rpq": 3}, clock=clock)
        svc = service(
            clock=clock, injector=injector, breaker_threshold=3, breaker_cooldown=5.0
        )
        harness = InProcessHarness(svc)
        for i in range(3):
            harness.run_one({"id": i, "op": "rpq", "query": "Entry"})
        assert svc.stats()["breakers"]["rpq"] == "open"
        clock.sleep(6.0)  # past the cooldown: one probe is admitted
        probe = harness.run_one({"id": 10, "op": "rpq", "query": "Entry"})
        assert probe["status"] == "ok"
        assert svc.stats()["breakers"]["rpq"] == "closed"

    def test_faulty_engine_does_not_poison_others(self) -> None:
        clock = SimulatedClock()
        injector = FaultInjector(seed=3, outages={"worker:rpq"}, clock=clock)
        harness = InProcessHarness(
            service(clock=clock, injector=injector, breaker_threshold=1)
        )
        assert harness.run_one({"id": 1, "op": "rpq", "query": "Entry"})["status"] == "error"
        assert harness.run_one({"id": 2, "op": "find", "query": "Title"})["status"] == "ok"


    def test_engine_bug_is_typed_internal_error(self, monkeypatch, caplog) -> None:
        # an exception type the fault boundary never expected: the request
        # still gets its one typed response, and its slot comes back
        def broken(*args, **kwargs):
            raise TypeError("engine bug")

        monkeypatch.setattr("repro.service.server.where_is", broken)
        metrics = MetricsRegistry()
        svc = service(metrics=metrics, max_inflight=1, max_queue=0)
        harness = InProcessHarness(svc)
        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            response = harness.run_one({"id": 1, "op": "find", "query": "Title"})
        assert response["status"] == "error"
        assert response["error_type"] == "InternalError"
        assert response["error"] == "TypeError: engine bug"
        assert metrics.counter("service_internal_error").value == 1
        assert metrics.counter("service_error").value == 1
        assert len([r for r in caplog.records if r.exc_info]) == 1  # one traceback
        assert svc.governor.snapshot()["inflight"] == 0
        # the only slot is free again: the next request is admitted, not shed
        assert harness.run_one({"id": 2, "op": "rpq", "query": "Entry"})["status"] == "ok"


# -- the acceptance scenario -------------------------------------------------------


class TestEndToEnd:
    def test_all_four_typed_outcomes_in_one_run(self) -> None:
        """The ISSUE acceptance test: admission, shed, deadline, cancel --
        four typed responses out of one server instance, no crash, no
        unbounded queue."""
        clock = SimulatedClock()
        svc = service(
            chain_graph(60), clock=clock, max_inflight=2, max_queue=1
        )
        harness = InProcessHarness(svc, advance_per_step=0.01)

        def chaos(task, step_count):
            if step_count == 4:
                harness.cancel(2, request_id=100)

        harness.on_step = chaos
        harness.submit_all(
            [
                {"id": 1, "op": "rpq", "query": "next*"},                      # ok
                {"id": 2, "op": "rpq", "query": "next*"},                      # cancelled
                {"id": 3, "op": "rpq", "query": "next*", "deadline": 0.05},    # deadline
                {"id": 4, "op": "rpq", "query": "next*"},                      # shed
            ]
        )
        responses = harness.run()

        assert responses[1]["status"] == "ok"
        assert len(responses[1]["result"]) == 61
        assert responses[2]["status"] == "partial"
        assert responses[2]["reason"] == "cancelled"
        assert responses[3]["status"] == "deadline"
        assert responses[4]["status"] == "overloaded"
        assert responses[100]["result"] == {"cancelled": True}

        # the server survived in a clean state
        snap = svc.governor.snapshot()
        assert snap["inflight"] == 0 and snap["queue_depth"] == 0
        assert snap["shed"] == 1
        # and every decision is visible in the metrics
        stats = harness.run_one({"id": 200, "op": "stats"})["result"]
        counters = stats["metrics"]
        assert counters["service_ok"] >= 1
        assert counters["service_partial"] >= 1
        assert counters["service_deadline"] >= 1
        assert counters["service_overloaded"] >= 1
        assert counters["service_cancelled"] >= 1

    def test_deterministic_replay(self) -> None:
        """Same inputs, same interleaving, byte-identical responses."""

        def run() -> dict:
            clock = SimulatedClock()
            svc = service(chain_graph(40), clock=clock, max_inflight=2, max_queue=1)
            harness = InProcessHarness(svc, advance_per_step=0.01)
            harness.submit_all(
                [{"id": i, "op": "rpq", "query": "next*",
                  "deadline": 0.1 + 0.05 * i} for i in range(6)]
            )
            return harness.run()

        assert run() == run()

    def test_tracer_spans_cover_serving(self) -> None:
        from repro.obs import Tracer

        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        harness = InProcessHarness(service(clock=clock, tracer=tracer))
        harness.run_one({"id": 1, "op": "rpq", "query": "Entry.Movie.Title"})
        spans = tracer.find("serve")
        assert len(spans) == 1
        assert spans[0].attributes["status"] == "ok"
        assert spans[0].attributes["checkpoints"] >= 1
