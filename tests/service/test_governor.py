"""Admission governor tests: bounded slots, bounded queue, typed sheds."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    BudgetExhausted,
    DeadlineExceeded,
    QueryCancelled,
    SimulatedClock,
)
from repro.service import AdmissionGovernor, Overloaded, QueryControl


def governor(**kw) -> AdmissionGovernor:
    kw.setdefault("clock", SimulatedClock())
    # a private registry per test: snapshot() reads counters, and the
    # shared default registry accumulates across the whole process
    kw.setdefault("metrics", MetricsRegistry())
    return AdmissionGovernor(kw.pop("max_inflight", 2), kw.pop("max_queue", 2), **kw)


class TestAdmission:
    def test_admits_up_to_max_inflight(self) -> None:
        gov = governor()
        t1, t2 = gov.admit("a"), gov.admit("b")
        assert t1.admitted and t2.admitted
        assert gov.inflight == 2 and gov.queue_depth == 0

    def test_queues_fifo_beyond_inflight(self) -> None:
        gov = governor()
        running = [gov.admit("a"), gov.admit("b")]
        waiting = [gov.admit("c"), gov.admit("d")]
        assert not waiting[0].admitted and not waiting[1].admitted
        assert gov.queue_depth == 2
        gov.release(running[0])
        assert waiting[0].admitted and not waiting[1].admitted  # FIFO
        gov.release(running[1])
        assert waiting[1].admitted

    def test_sheds_typed_when_both_full(self) -> None:
        gov = governor()
        for key in "abcd":
            gov.admit(key)
        with pytest.raises(Overloaded) as exc_info:
            gov.admit("e")
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.retry_after > 0
        # Shedding is stateless: inflight and queue are unchanged.
        assert gov.inflight == 2 and gov.queue_depth == 2

    def test_never_queues_unboundedly(self) -> None:
        gov = governor(max_inflight=1, max_queue=3)
        gov.admit("run")
        shed = 0
        for i in range(50):
            try:
                gov.admit(f"q{i}")
            except Overloaded:
                shed += 1
        assert gov.queue_depth == 3  # hard bound, no matter the offered load
        assert shed == 47

    def test_zero_queue_sheds_at_capacity(self) -> None:
        gov = governor(max_inflight=1, max_queue=0)
        gov.admit("a")
        with pytest.raises(Overloaded):
            gov.admit("b")

    def test_release_is_idempotent(self) -> None:
        gov = governor()
        t = gov.admit("a")
        gov.release(t)
        gov.release(t)
        assert gov.inflight == 0
        assert gov.snapshot()["released"] == 1

    def test_releasing_queued_ticket_removes_it(self) -> None:
        gov = governor(max_inflight=1, max_queue=2)
        running = gov.admit("a")
        waiter = gov.admit("b")
        gov.release(waiter)  # client gave up while queued
        assert gov.queue_depth == 0
        gov.release(running)
        assert not waiter.admitted  # a released waiter is never promoted

    def test_released_waiter_skipped_on_promotion(self) -> None:
        gov = governor(max_inflight=1, max_queue=2)
        running = gov.admit("a")
        gone, survivor = gov.admit("b"), gov.admit("c")
        gone.released = True  # simulates the async cancel race
        gov.release(running)
        assert survivor.admitted and not gone.admitted

    def test_on_admit_callback_fires_at_promotion(self) -> None:
        gov = governor(max_inflight=1, max_queue=1)
        running = gov.admit("a")
        waiter = gov.admit("b")
        fired = []
        waiter.on_admit = lambda: fired.append(True)
        gov.release(running)
        assert fired == [True]

    def test_snapshot_accounting(self) -> None:
        gov = governor()
        tickets = [gov.admit(k) for k in "abcd"]
        with pytest.raises(Overloaded):
            gov.admit("e")
        for t in tickets:
            gov.release(t)
        snap = gov.snapshot()
        assert snap["admitted"] == 4  # 2 direct + 2 promoted
        assert snap["queued"] == 2
        assert snap["shed"] == 1
        assert snap["released"] == 4
        assert snap["inflight"] == 0 and snap["queue_depth"] == 0

    def test_constructor_validation(self) -> None:
        with pytest.raises(ValueError):
            AdmissionGovernor(0, 1)
        with pytest.raises(ValueError):
            AdmissionGovernor(1, -1)


class TestQueryControl:
    def test_deadline_starts_at_admission_not_dequeue(self) -> None:
        clock = SimulatedClock()
        gov = governor(max_inflight=1, max_queue=1, clock=clock)
        running = gov.admit("slow")
        waiter = gov.admit("stale", deadline=0.5)
        clock.sleep(1.0)  # the queue wait eats the whole deadline
        gov.release(running)
        assert waiter.admitted
        with pytest.raises(DeadlineExceeded):
            waiter.control.checkpoint(0)

    def test_checkpoint_order_cancel_deadline_budget(self) -> None:
        clock = SimulatedClock()
        control = QueryControl("k", clock=clock, deadline=0.1, budget=5)
        control.cancel()
        clock.sleep(1.0)
        # all three conditions hold; cancel wins deterministically
        with pytest.raises(QueryCancelled):
            control.checkpoint(100)

    def test_budget_counts_accumulated_ops(self) -> None:
        control = QueryControl("k", clock=SimulatedClock(), budget=10)
        control.checkpoint(4)
        control.checkpoint(6)  # exactly at budget: still fine
        with pytest.raises(BudgetExhausted) as exc_info:
            control.checkpoint(1)
        assert exc_info.value.spent == 11 and exc_info.value.budget == 10

    def test_remaining_tracks_clock(self) -> None:
        clock = SimulatedClock()
        control = QueryControl("k", clock=clock, deadline=2.0)
        clock.sleep(0.5)
        assert control.remaining() == pytest.approx(1.5)
        assert QueryControl("k", clock=clock).remaining() == float("inf")

    def test_defaults_flow_from_governor(self) -> None:
        gov = governor(default_deadline=1.0, default_budget=7)
        t = gov.admit("a")
        assert t.control.deadline == 1.0 and t.control.budget == 7
        explicit = gov.admit("b", deadline=0.25, budget=3)
        assert explicit.control.deadline == 0.25 and explicit.control.budget == 3

    def test_invalid_limits_rejected(self) -> None:
        with pytest.raises(ValueError):
            QueryControl("k", deadline=0)
        for deadline in (float("nan"), float("inf")):  # NaN <= 0 is false
            with pytest.raises(ValueError):
                QueryControl("k", deadline=deadline)
        with pytest.raises(ValueError):
            QueryControl("k", budget=-1)
