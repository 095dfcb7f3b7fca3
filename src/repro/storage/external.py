"""Dynamically-fetched external data (section 4, citing [28]).

McHugh & Widom, *Integrating dynamically-fetched external information into
a DBMS for semistructured data*: parts of the database live elsewhere (a
web page, another DBMS) and are materialized only when a query actually
traverses into them.

:class:`ExternalGraph` wraps a base graph in which some leaves are marked
as *external stubs*.  A stub carries a key; the first time a traversal
asks for the stub's edges, the registered :class:`Fetcher` produces the
external subtree (here: any callable -- the tests and benchmarks use
generators standing in for the 1997 web, per DESIGN.md's substitution
table), which is spliced in and cached.  Queries see one seamless graph;
:attr:`ExternalGraph.fetch_count` exposes the I/O the laziness saved.

Because the 1997 web also *failed*, fetching is guarded by the
resilience layer (:mod:`repro.resilience`): an optional
:class:`~repro.resilience.RetryPolicy` retries transient errors with
backoff, a shared :class:`~repro.resilience.CircuitBreaker` stops
hammering a dead source, and ``on_failure`` chooses between the classic
fail-fast behavior (``"raise"``) and *partial-result* mode
(``"partial"``), where a stub whose fetch ultimately fails simply
contributes no edges and is recorded in the :meth:`completeness` report.

The wrapper satisfies the informal graph protocol (``root``,
``edges_from``, ``reachable``...) that the RPQ product, the browsing
queries, and the datalog EDB builder rely on, so every engine works over
external data unchanged -- which is exactly the point of [28].
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..core.graph import Edge, Graph
from ..core.labels import Label, sym
from ..resilience import (
    CircuitBreaker,
    Clock,
    Completeness,
    Deadline,
    EventLog,
    FailureRecord,
    ResilienceError,
    RetryPolicy,
    SimulatedClock,
    call_with_retry,
)

__all__ = ["ExternalGraph", "EXTERNAL_MARKER"]

#: Stub edges carry this symbol; their target holds the key as string data.
EXTERNAL_MARKER = sym("@external")

#: A fetcher maps a stub key to the external subtree.
Fetcher = Callable[[str], Graph]


class ExternalGraph:
    """A graph with lazily-fetched external regions.

    Build the base graph normally, then mark external attachment points
    with :meth:`add_stub`.  Wrap with ``ExternalGraph(base, fetcher)`` and
    query the wrapper.

    Resilience knobs (all optional, all defaulting to the historical
    fail-fast single-attempt behavior):

    * ``policy`` -- retry transient fetcher errors with backoff;
    * ``breaker`` -- a circuit breaker shared by all fetches;
    * ``deadline`` -- a time budget over the whole wrapper's fetching;
    * ``on_failure`` -- ``"raise"`` propagates the failure (wrapped in a
      :class:`~repro.resilience.ResilienceError` when a policy is set),
      ``"partial"`` records it and treats the stub as an empty region;
    * ``clock`` / ``events`` -- observability plumbing; the default clock
      is simulated, so backoff costs no wall time in tests.
    """

    def __init__(
        self,
        base: Graph,
        fetcher: Fetcher,
        *,
        policy: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        deadline: "Deadline | None" = None,
        on_failure: str = "raise",
        clock: "Clock | None" = None,
        events: "EventLog | None" = None,
    ) -> None:
        if on_failure not in ("raise", "partial"):
            raise ValueError(f"on_failure must be 'raise' or 'partial', got {on_failure!r}")
        self._graph = base.copy()
        self._fetcher = fetcher
        self._policy = policy
        self._breaker = breaker
        self._deadline = deadline
        self._on_failure = on_failure
        self._clock = clock if clock is not None else SimulatedClock()
        self._events = events
        self._pending: dict[int, str] = {}  # node -> external key
        self._failures: dict[int, FailureRecord] = {}  # node -> why it failed
        self.fetch_count = 0  # successful materializations
        self.fetch_attempts = 0  # fetcher invocations incl. retries
        # collect stubs: node --@external--> holder --"key"--> leaf
        for node in list(self._graph.reachable()):
            for edge in self._graph.edges_from(node):
                if edge.label == EXTERNAL_MARKER:
                    key = self._stub_key(edge.dst)
                    if key is not None:
                        self._pending[node] = key
        # strip the marker edges; they are bookkeeping, not data
        for node in list(self._graph.nodes()):
            self._graph._adj[node] = [
                e for e in self._graph._adj[node] if e.label != EXTERNAL_MARKER
            ]

    def _stub_key(self, holder: int) -> "str | None":
        for edge in self._graph.edges_from(holder):
            if edge.label.is_string:
                return str(edge.label.value)
        return None

    @staticmethod
    def add_stub(graph: Graph, node: int, key: str) -> None:
        """Mark ``node`` as continuing in external data under ``key``."""
        from ..core.labels import string

        holder = graph.new_node()
        leaf = graph.new_node()
        graph.add_edge(node, EXTERNAL_MARKER, holder)
        graph.add_edge(holder, string(key), leaf)

    # -- the graph protocol, with on-demand materialization -------------------

    @property
    def root(self) -> int:
        return self._graph.root

    def _fetch(self, key: str) -> tuple[Graph, int]:
        """One guarded fetch: returns ``(subtree, attempts)``."""
        if self._policy is None and self._breaker is None and self._deadline is None:
            # historical fast path: one bare attempt, raw exceptions
            self.fetch_attempts += 1
            return self._fetcher(key), 1
        attempts_box = [0]

        def attempt() -> Graph:
            attempts_box[0] += 1
            self.fetch_attempts += 1
            return self._fetcher(key)

        try:
            subtree, attempts = call_with_retry(
                attempt,
                key=key,
                policy=self._policy,
                breaker=self._breaker,
                deadline=self._deadline,
                clock=self._clock,
                events=self._events,
            )
        except ResilienceError as exc:
            exc.attempts = attempts_box[0]  # actual invocations, for reporting
            raise
        return subtree, attempts

    def _materialize(self, node: int) -> None:
        key = self._pending.get(node)
        if key is None:
            return
        try:
            subtree, _ = self._fetch(key)
        except Exception as exc:
            if self._on_failure != "partial":
                del self._pending[node]
                raise
            # degrade: the stub contributes nothing; remember exactly why
            del self._pending[node]
            attempts = getattr(exc, "attempts", 1)
            self._failures[node] = FailureRecord(
                kind="fetch", key=key, attempts=attempts, error=repr(exc), lost=1
            )
            if self._events is not None:
                self._events.emit("fallback", key=key, lost=1)
            return
        del self._pending[node]
        self.fetch_count += 1
        mapping = self._graph._absorb(subtree)
        for edge in subtree.edges_from(subtree.root):
            self._graph.add_edge(node, edge.label, mapping[edge.dst])

    def edges_from(self, node: int) -> tuple[Edge, ...]:
        self._materialize(node)
        return self._graph.edges_from(node)

    def out_degree(self, node: int) -> int:
        return len(self.edges_from(node))

    def labels_from(self, node: int) -> set[Label]:
        return {e.label for e in self.edges_from(node)}

    def successors(self, node: int, label: "Label | None" = None):
        for edge in self.edges_from(node):
            if label is None or edge.label == label:
                yield edge.dst

    def reachable(self, start: "int | None" = None) -> set[int]:
        """Forces materialization of everything reachable (full fetch)."""
        origin = self.root if start is None else start
        seen = {origin}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for edge in self.edges_from(node):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)
        return seen

    @property
    def pending_fetches(self) -> int:
        """External regions not yet materialized."""
        return len(self._pending)

    @property
    def total_retries(self) -> int:
        """Fetcher invocations beyond the first per successful or failed stub."""
        first_attempts = self.fetch_count + sum(
            1 for f in self._failures.values() if f.attempts > 0
        )
        return max(0, self.fetch_attempts - first_attempts)

    def completeness(self) -> Completeness:
        """The partial-result contract: is what queries saw the whole truth?

        Regions still pending were never needed by any traversal so far,
        so they do not make the answer incomplete (laziness is not loss);
        only *failed* fetches do.
        """
        return Completeness(
            complete=not self._failures,
            failures=tuple(
                self._failures[node] for node in sorted(self._failures)
            ),
            retries=self.total_retries,
            succeeded=self.fetch_count,
        )

    def retry_failed(self) -> int:
        """Re-queue every failed stub for fetching; returns how many.

        Use after a known outage ends (the breaker's cooldown handles the
        transient case automatically).
        """
        requeued = 0
        for node, record in list(self._failures.items()):
            self._pending[node] = record.key
            del self._failures[node]
            requeued += 1
        return requeued

    def snapshot(self) -> Graph:
        """A plain graph of everything fetched so far (stubs still pending
        simply end where they end)."""
        return self._graph.copy()
