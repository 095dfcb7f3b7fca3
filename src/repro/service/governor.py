"""Admission control: bounded concurrency, bounded queue, typed shedding.

The governor is the middle layer of the service (session manager ->
**governor** -> worker pool) and it is deliberately a pure state
machine: no asyncio, no threads, no I/O.  The async server and the
deterministic harness both drive it through two calls --
:meth:`AdmissionGovernor.admit` and :meth:`AdmissionGovernor.release` --
so every admission decision is reproducible under the simulated clock.

Policy, in one paragraph: at most ``max_inflight`` queries execute at
once; up to ``max_queue`` more wait in FIFO order; anything beyond that
is *shed immediately* with a typed :class:`~repro.service.errors.
Overloaded` -- the server never queues unboundedly, so its memory and
its tail latency stay bounded no matter the offered load.  A released
slot admits the oldest waiter.  Every decision increments an always-on
counter in the service :class:`~repro.obs.MetricsRegistry`.

:class:`QueryControl` is the per-query companion the governor hands the
worker: deadline (on the governor's clock), operation budget, and a
cooperative cancel flag, all checked at traversal checkpoints
(superstep boundaries -- see :class:`~repro.automata.product.RpqStepper`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..obs.metrics import MetricsRegistry
from ..resilience.clock import Clock, WallClock
from ..resilience.errors import BudgetExhausted, DeadlineExceeded, QueryCancelled
from ..resilience.events import EventLog
from .errors import Overloaded

__all__ = ["QueryControl", "Ticket", "AdmissionGovernor", "SERVICE_METRICS"]

#: Always-on accounting for the whole service layer (the same pattern as
#: ``STORAGE_METRICS`` / ``PLAN_METRICS``), surfaced by ``stats --json``.
SERVICE_METRICS = MetricsRegistry()


class QueryControl:
    """Deadline + operation budget + cancel flag for one admitted query.

    ``checkpoint(ops)`` is the single gate cooperative execution passes
    through between supersteps.  Check order is fixed (cancel, then
    deadline, then budget) so a test that arranges two conditions at
    once gets a deterministic outcome.  ``ops`` accumulates the scanned
    edge count, making budget violations exact and replayable where
    wall-clock deadlines are not.
    """

    __slots__ = ("key", "clock", "budget", "ops", "checkpoints", "_expires", "_deadline", "_cancelled")

    def __init__(
        self,
        key: str,
        *,
        clock: "Clock | None" = None,
        deadline: "float | None" = None,
        budget: "int | None" = None,
    ) -> None:
        if deadline is not None and not 0 < deadline < float("inf"):
            raise ValueError("deadline must be positive finite seconds")
        if budget is not None and budget <= 0:
            raise ValueError("budget must be a positive operation count")
        self.key = key
        self.clock = clock if clock is not None else WallClock()
        self.budget = budget
        self.ops = 0
        self.checkpoints = 0
        self._deadline = deadline
        self._expires = None if deadline is None else self.clock.now() + deadline
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def deadline(self) -> "float | None":
        return self._deadline

    def remaining(self) -> float:
        """Clock seconds left, ``inf`` when no deadline was set."""
        if self._expires is None:
            return float("inf")
        return self._expires - self.clock.now()

    def cancel(self) -> None:
        """Request cooperative cancellation (takes effect at the next
        checkpoint; never interrupts a superstep mid-flight)."""
        self._cancelled = True

    def checkpoint(self, ops: int = 0) -> None:
        """Account ``ops`` more work; raise the first violated limit."""
        self.ops += ops
        self.checkpoints += 1
        if self._cancelled:
            raise QueryCancelled(self.key)
        if self._expires is not None and self.clock.now() >= self._expires:
            raise DeadlineExceeded(self.key, self._deadline or 0.0)
        if self.budget is not None and self.ops > self.budget:
            raise BudgetExhausted(self.key, self.budget, self.ops)


class Ticket:
    """One admission: either running now, waiting its turn, or done.

    ``on_admit`` is how the two front-ends bridge their concurrency
    models without the governor knowing either: the asyncio server sets
    an :class:`asyncio.Event` there; the deterministic harness just
    polls :attr:`admitted`.
    """

    __slots__ = ("key", "control", "admitted", "released", "queued_at", "on_admit")

    def __init__(self, key: str, control: QueryControl) -> None:
        self.key = key
        self.control = control
        self.admitted = False
        self.released = False
        self.queued_at = 0.0
        self.on_admit: "Callable[[], None] | None" = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self.released else ("running" if self.admitted else "queued")
        return f"<ticket {self.key} {state}>"


class AdmissionGovernor:
    """Bounded in-flight slots over a bounded FIFO queue; shed the rest."""

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 16,
        *,
        clock: "Clock | None" = None,
        default_deadline: "float | None" = None,
        default_budget: "int | None" = None,
        metrics: MetricsRegistry = SERVICE_METRICS,
        events: "EventLog | None" = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.clock = clock if clock is not None else WallClock()
        self.default_deadline = default_deadline
        self.default_budget = default_budget
        self._events = events
        self._inflight: set[Ticket] = set()
        self._queue: "deque[Ticket]" = deque()
        self._admitted = metrics.counter("governor_admitted")
        self._queued = metrics.counter("governor_queued")
        self._shed = metrics.counter("governor_shed")
        self._released = metrics.counter("governor_released")
        self._inflight_gauge = metrics.gauge("governor_inflight")
        self._queue_gauge = metrics.gauge("governor_queue_depth")

    # -- introspection ----------------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def snapshot(self) -> dict[str, int]:
        """JSON-ready admission statistics (the ``stats`` op includes it)."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "inflight": len(self._inflight),
            "queue_depth": len(self._queue),
            "admitted": self._admitted.value,
            "queued": self._queued.value,
            "shed": self._shed.value,
            "released": self._released.value,
        }

    # -- the decision ------------------------------------------------------------

    def admit(
        self,
        key: str,
        *,
        deadline: "float | None" = None,
        budget: "int | None" = None,
    ) -> Ticket:
        """Admit, enqueue, or shed one request; never blocks.

        The returned ticket is executing iff ``ticket.admitted``;
        otherwise it holds a FIFO queue position and will be promoted by
        some :meth:`release`.  A full queue raises
        :class:`~repro.service.errors.Overloaded` *before* any per-query
        state is built -- shedding must stay cheap or it is not load
        shedding.

        The per-query deadline starts at admission, not at dequeue: time
        spent waiting in the queue is part of the client's wait, so a
        queued request whose deadline lapses fails its first checkpoint
        instead of running stale.
        """
        if len(self._inflight) >= self.max_inflight and len(self._queue) >= self.max_queue:
            self._shed.inc()
            if self._events is not None:
                self._events.emit("shed", key=key, queue=len(self._queue))
            raise Overloaded(key, "queue_full", retry_after=self._retry_hint())
        control = QueryControl(
            key,
            clock=self.clock,
            deadline=deadline if deadline is not None else self.default_deadline,
            budget=budget if budget is not None else self.default_budget,
        )
        ticket = Ticket(key, control)
        if len(self._inflight) < self.max_inflight:
            self._inflight.add(ticket)
            ticket.admitted = True
            self._admitted.inc()
            if self._events is not None:
                self._events.emit("admit", key=key, inflight=len(self._inflight))
        else:
            ticket.queued_at = self.clock.now()
            self._queue.append(ticket)
            self._queued.inc()
            if self._events is not None:
                self._events.emit("enqueue", key=key, depth=len(self._queue))
        self._refresh_gauges()
        return ticket

    def release(self, ticket: Ticket) -> None:
        """Return a ticket's slot (or queue position); promote a waiter.

        Idempotent: completing and cancelling the same query may race in
        the async front-end, and double release must not corrupt the
        slot count.
        """
        if ticket.released:
            return
        ticket.released = True
        self._released.inc()
        if ticket in self._inflight:
            self._inflight.discard(ticket)
            while self._queue:
                waiter = self._queue.popleft()
                if waiter.released:  # cancelled while waiting
                    continue
                self._inflight.add(waiter)
                waiter.admitted = True
                self._admitted.inc()
                if waiter.on_admit is not None:
                    waiter.on_admit()
                break
        else:
            try:
                self._queue.remove(ticket)
            except ValueError:
                pass
        self._refresh_gauges()

    def _retry_hint(self) -> float:
        """A polite retry-after: the default deadline if configured,
        else a small constant -- a hint, not a reservation."""
        return self.default_deadline if self.default_deadline else 0.05

    def _refresh_gauges(self) -> None:
        self._inflight_gauge.set(len(self._inflight))
        self._queue_gauge.set(len(self._queue))
