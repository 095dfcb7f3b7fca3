"""Retry, timeout, and circuit-breaking policies for unreliable calls.

Section 4's two fragile mechanisms -- dynamically-fetched external data
([28]) and cross-site messages in distributed decomposition ([35]) -- both
reduce to "a call that can fail or hang".  This module gives the engines
one shared vocabulary for guarding such calls:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic* jitter (a hash of the call key and attempt number, so
  replaying a seeded chaos schedule replays the exact same delays);
* :class:`Deadline` -- a per-call or per-query time budget measured
  against a :class:`~repro.resilience.clock.Clock`;
* :class:`CircuitBreaker` -- trips open after N consecutive failures,
  fails fast while open, and half-opens one probe after a cooldown;
* :func:`call_with_retry` -- the guarded-call engine combining all three
  and narrating what it does into an :class:`~repro.resilience.events.
  EventLog`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, TypeVar

from .clock import Clock, WallClock
from .errors import CircuitOpenError, DeadlineExceeded, RetriesExhausted
from .events import EventLog

__all__ = ["RetryPolicy", "Deadline", "CircuitBreaker", "call_with_retry"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and with what delays, a failed call is re-attempted.

    ``delay(attempt, key)`` is ``base_delay * multiplier**(attempt-1)``
    capped at ``max_delay``, then spread by ``+-jitter`` (a fraction)
    using a CRC32 of ``key:attempt`` -- deterministic, but de-synchronised
    across keys so a thundering herd of stub fetches does not retry in
    lockstep.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be a fraction in [0, 1)")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retrying after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ValueError("attempts are numbered from 1")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if not self.jitter or not raw:
            return raw
        unit = zlib.crc32(f"{key}:{attempt}".encode()) / 0xFFFFFFFF
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt, no delays: the pre-resilience behavior."""
        return cls(max_attempts=1, base_delay=0.0, jitter=0.0)


class Deadline:
    """A time budget: so many clock-seconds from construction.

    Guarded calls consult the deadline before each attempt and before
    each backoff sleep; a sleep that would overrun the budget fails
    immediately with :class:`DeadlineExceeded` instead of wasting the
    remaining time.
    """

    def __init__(self, budget: float, clock: "Clock | None" = None) -> None:
        if budget <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget = budget
        self._clock = clock if clock is not None else WallClock()
        self._expires = self._clock.now() + budget

    def remaining(self) -> float:
        return self._expires - self._clock.now()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, key: str = "deadline") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(key, self.budget)


class CircuitBreaker:
    """Stop hammering a dependency that keeps failing.

    The classic three-state machine:

    * **closed** -- calls flow; ``failure_threshold`` *consecutive*
      failures trip it open (so a permanently-dead dependency is
      contacted at most ``failure_threshold`` times before the breaker
      intervenes -- the documented trip bound the chaos tests assert);
    * **open** -- calls fail fast (:class:`CircuitOpenError`) without
      touching the dependency until ``cooldown`` clock-seconds pass;
    * **half-open** -- after the cooldown, exactly one probe call is let
      through: success closes the breaker, failure re-opens it and
      restarts the cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: "Clock | None" = None,
        key: str = "breaker",
        events: "EventLog | None" = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.key = key
        self._clock = clock if clock is not None else WallClock()
        self._events = events
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open`` (cooldown elapsed)."""
        if self._state == "open" and (
            self._clock.now() - self._opened_at >= self.cooldown
        ):
            return "half-open"
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one probe.)"""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            if self._events is not None:
                self._events.emit("half-open", key=self.key)
            return True
        return False

    def record_success(self) -> None:
        if self._state != "closed" and self._events is not None:
            self._events.emit("reset", key=self.key)
        self._state = "closed"
        self._consecutive_failures = 0
        self._probing = False

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        tripped = self._probing or (
            self._state == "closed"
            and self._consecutive_failures >= self.failure_threshold
        )
        if tripped:
            self._state = "open"
            self._opened_at = self._clock.now()
            self._probing = False
            self.trips += 1
            if self._events is not None:
                self._events.emit(
                    "trip", key=self.key, failures=self._consecutive_failures
                )


def call_with_retry(
    fn: Callable[[], T],
    *,
    key: str = "call",
    policy: "RetryPolicy | None" = None,
    breaker: "CircuitBreaker | None" = None,
    deadline: "Deadline | None" = None,
    clock: "Clock | None" = None,
    events: "EventLog | None" = None,
    retryable: "tuple[type[BaseException], ...]" = (Exception,),
) -> tuple[T, int]:
    """Run ``fn`` under the given policies; return ``(result, attempts)``.

    Raises :class:`CircuitOpenError` (nothing attempted),
    :class:`DeadlineExceeded` (budget spent), or
    :class:`RetriesExhausted` (chained to the last underlying error).
    Exceptions outside ``retryable`` propagate unwrapped on first
    occurrence -- a programming error is not a transient fault.
    """
    policy = policy if policy is not None else RetryPolicy.none()
    clock = clock if clock is not None else WallClock()
    attempt = 0
    while True:
        if deadline is not None:
            deadline.check(key)
        if breaker is not None and not breaker.allow():
            if events is not None:
                events.emit("short-circuit", key=key)
            raise CircuitOpenError(key)
        attempt += 1
        started = clock.now()
        try:
            result = fn()
        except retryable as exc:
            if breaker is not None:
                breaker.record_failure()
            if attempt >= policy.max_attempts:
                if events is not None:
                    events.emit("give-up", key=key, attempts=attempt, error=repr(exc))
                raise RetriesExhausted(key, attempt, exc) from exc
            delay = policy.delay(attempt, key)
            if deadline is not None and delay > deadline.remaining():
                if events is not None:
                    events.emit("give-up", key=key, attempts=attempt, error="deadline")
                raise DeadlineExceeded(key, deadline.budget) from exc
            if events is not None:
                events.emit("retry", key=key, attempt=attempt, delay=delay)
            clock.sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            if events is not None:
                events.emit(
                    "fetch-latency",
                    key=key,
                    seconds=clock.now() - started,
                    attempts=attempt,
                )
            return result, attempt
