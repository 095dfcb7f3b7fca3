"""Decomposed query evaluation across sites (section 4, [35]).

The evaluation follows Suciu's scheme in a bulk-synchronous (BSP) rendering:

* each **superstep**, every site expands -- *independently and in
  parallel* -- all the (node, automaton state) configurations currently
  queued at it, traversing only its local edges;
* configurations that cross a site boundary are buffered as messages and
  delivered at the next superstep;
* evaluation ends when no messages remain.

Because a configuration is expanded at most once globally, the *total*
work matches the centralized product construction; the wall-clock
(makespan) is the sum over supersteps of the *maximum* per-site work, so
with a locality-friendly partition the decomposition approaches a
``num_sites``-fold speedup -- the shape experiment E5 reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..automata.dfa import LazyDfa
from ..automata.product import (
    _add_product_counts,
    _resolve_plan,
    _text_of,
    RpqStepper,
    compile_rpq,
    coreach_labels,
    coreachable,
    ordered_edge_indices,
)
from ..obs import QueryProfile
from ..resilience import (
    CircuitBreaker,
    Clock,
    Completeness,
    EventLog,
    FailureRecord,
    FaultInjector,
    ResilienceError,
    RetryPolicy,
    SimulatedClock,
    call_with_retry,
)
from .sites import DistributedGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.plan_cache import PlanCache

__all__ = [
    "DistributedStats",
    "distributed_rpq",
    "centralized_work",
    "SiteRuntime",
]


@dataclass
class DistributedStats:
    """Work accounting of one decomposed evaluation."""

    #: work[r][s]: configurations expanded by site s in superstep r
    work: list[list[int]] = field(default_factory=list)
    messages: int = 0
    #: cross-site messages *received* by each site over the whole run
    messages_per_site: list[int] = field(default_factory=list)

    @property
    def supersteps(self) -> int:
        return len(self.work)

    @property
    def total_work(self) -> int:
        return sum(sum(round_work) for round_work in self.work)

    @property
    def makespan(self) -> int:
        """Parallel cost: per superstep, the slowest site gates progress."""
        return sum(max(round_work) if round_work else 0 for round_work in self.work)

    @property
    def speedup(self) -> float:
        """total work / makespan: the parallelism actually extracted."""
        return self.total_work / self.makespan if self.makespan else 1.0


def distributed_rpq(
    dist: DistributedGraph,
    pattern: "str | LazyDfa",
    *,
    plan_cache: "PlanCache | None" = None,
    runtime: "SiteRuntime | None" = None,
    profile: "QueryProfile | None" = None,
) -> tuple[set[int], DistributedStats]:
    """Evaluate a regular path query by site-parallel decomposition.

    Returns the matched node set (identical to the centralized
    :func:`repro.automata.product.rpq_nodes` -- tested) and the work
    statistics of the BSP execution.

    ``runtime`` makes the run survive site failures: each superstep's
    inbox delivery to a site is one guarded call through that site's
    :class:`SiteRuntime` breaker.  When a delivery ultimately fails, its
    configurations are dropped and reported -- ``runtime.completeness()``
    is the report -- instead of crashing the query; because RPQ answers
    are monotone in the visible graph, the returned node set is a sound
    lower bound, and with sites permanently down it equals the
    centralized answer over ``dist.without_sites(dead)`` (tested).  A
    matched node is recorded by the *sender* (the site that holds the
    edge into it) -- the edge's existence is local knowledge -- so
    targets of cross edges into a dead site still appear in the answer;
    only traversal *beyond* the dead site is lost.  Without one, nothing
    can fail.

    ``profile`` gets the BSP observables -- supersteps (rounds) and total
    cross-site messages, with per-site received-message counts in
    ``extras`` -- next to the same traversal counts the centralized
    :func:`~repro.automata.product.rpq_nodes` reports, so the
    decomposition's "total work matches centralized" claim becomes a
    per-query assertion.
    """
    dfa, states_before = _resolve_plan(pattern, plan_cache)
    if runtime is None:
        runtime = SiteRuntime(dist)
    results, stats, seen = _bsp(dist, dfa, runtime)
    if profile is not None:
        profile.stamp("distributed-rpq", _text_of(pattern))
        _add_product_counts(profile, dist.graph, seen, states_before, dfa, len(results))
        profile.supersteps += stats.supersteps
        profile.messages += stats.messages
        for site, count in enumerate(stats.messages_per_site):
            profile.count(f"messages_to_site_{site}", count)
    return results, stats


class SiteRuntime:
    """Per-site resilience state for one decomposed evaluation.

    Models the client side of [35]'s message protocol when sites can
    fail: delivering a superstep's inbox to a site is one guarded call
    (retried under ``policy``), and each site has its own circuit
    breaker, so a permanently-dead site is contacted at most
    ``failure_threshold`` times before every later delivery fails fast
    without touching the network -- the documented trip bound.

    The runtime reads only ``dist.num_sites``: one breaker per site.
    """

    def __init__(
        self,
        dist: DistributedGraph,
        *,
        injector: "FaultInjector | None" = None,
        policy: "RetryPolicy | None" = None,
        failure_threshold: int = 3,
        cooldown: float = 60.0,
        clock: "Clock | None" = None,
        events: "EventLog | None" = None,
    ) -> None:
        self.num_sites = dist.num_sites
        self.injector = injector
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=3, base_delay=0.01
        )
        self.clock = clock if clock is not None else (
            injector.clock if injector is not None else SimulatedClock()
        )
        self.events = events if events is not None else EventLog(self.clock)
        self.breakers = [
            CircuitBreaker(
                failure_threshold,
                cooldown,
                clock=self.clock,
                key=f"site:{site}",
                events=self.events,
            )
            for site in range(self.num_sites)
        ]
        self.retries = 0
        self.deliveries = 0
        self._failures: list[FailureRecord] = []

    def deliver(self, site: int, payload: int) -> bool:
        """One guarded inbox delivery of ``payload`` work units to ``site``.

        Returns True when the site accepted the delivery; on ultimate
        failure records the lost work and returns False (the partial-
        result contract: degrade, and say so).
        """
        if self.injector is None:
            # nothing can fail without an injector: skip the guarded call
            # so the fault-free path stays within its overhead budget
            self.deliveries += 1
            return True
        attempts_box = [0]

        def contact() -> None:
            attempts_box[0] += 1
            if self.injector is not None:
                self.injector.check(f"site:{site}")

        try:
            _, attempts = call_with_retry(
                contact,
                key=f"site:{site}",
                policy=self.policy,
                breaker=self.breakers[site],
                clock=self.clock,
                events=self.events,
            )
        except ResilienceError as exc:
            self.retries += max(0, attempts_box[0] - 1)
            self._failures.append(
                FailureRecord(
                    kind="site",
                    key=f"site:{site}",
                    attempts=attempts_box[0],
                    error=repr(exc),
                    lost=payload,
                )
            )
            self.events.emit("fallback", key=f"site:{site}", lost=payload)
            return False
        self.retries += attempts - 1
        self.deliveries += 1
        return True

    def completeness(self) -> Completeness:
        return Completeness(
            complete=not self._failures,
            failures=tuple(self._failures),
            retries=self.retries,
            succeeded=self.deliveries,
        )


def _bsp(
    dist: DistributedGraph, dfa: LazyDfa, runtime: SiteRuntime
) -> tuple[set[int], DistributedStats, set[tuple[int, int]]]:
    """The BSP loop: matched nodes, work statistics, explored configs.

    Each site's local expansion runs on the partition's cached frozen
    snapshot, label-pruned but scanning edges in insertion order -- so
    the message schedule, per-round work, and every other statistic are
    those of a plain-graph run; only the wall-clock drops.  A config is
    queued only inside the pattern's co-reachable region, the rule the
    centralized stepper applies, so both expand the same configs.
    """
    fg = dist.frozen()
    labels = coreach_labels(fg, dfa)
    region = None if labels is None else coreachable(fg, labels)[0]
    site_of = dist.site_of
    label_ids, edge_targets = fg.label_ids, fg.targets
    labels_seq, index = fg.labels_seq, fg.index
    stats = DistributedStats(messages_per_site=[0] * dist.num_sites)
    results: set[int] = set()
    trans: dict[tuple[int, int], int] = {}
    live_cache: dict = {}

    start = (fg.root, dfa.start)
    seen = {start}
    inboxes: list[list[tuple[int, int]]] = [[] for _ in range(dist.num_sites)]
    inboxes[site_of[fg.root]].append(start)
    if dfa.is_accepting(dfa.start):
        results.add(fg.root)

    while any(inboxes):
        round_work = [0] * dist.num_sites
        outboxes: list[list[tuple[int, int]]] = [[] for _ in range(dist.num_sites)]
        for site in range(dist.num_sites):
            queue = inboxes[site]
            if not queue:
                continue
            if not runtime.deliver(site, len(queue)):
                continue  # degraded: this site's queued work is lost, and reported
            # local expansion: this loop is what runs in parallel per site
            while queue:
                node, state = queue.pop()
                round_work[site] += 1
                pos = node if index is None else index[node]
                for i in ordered_edge_indices(fg, dfa, state, pos, live_cache):
                    lid = label_ids[i]
                    key = (state, lid)
                    nxt_state = trans.get(key)
                    if nxt_state is None:
                        stepped = dfa.step(state, labels_seq[lid])
                        nxt_state = -1 if dfa.is_dead(stepped) else stepped
                        trans[key] = nxt_state
                    if nxt_state < 0:
                        continue
                    dst = edge_targets[i]
                    config = (dst, nxt_state)
                    if config in seen:
                        continue
                    seen.add(config)
                    if dfa.is_accepting(nxt_state):
                        results.add(dst)
                    if region is not None and dst not in region:
                        continue
                    target_site = site_of[dst]
                    if target_site == site:
                        queue.append(config)
                    else:
                        outboxes[target_site].append(config)
                        stats.messages += 1
                        stats.messages_per_site[target_site] += 1
        stats.work.append(round_work)
        inboxes = outboxes
    return results, stats, seen


def centralized_work(dist: DistributedGraph, pattern: "str | LazyDfa") -> int:
    """Configurations a single-site evaluation expands (the E5 baseline):
    the stepper's frontiers summed over its supersteps."""
    stepper = RpqStepper(dist.graph, compile_rpq(pattern))
    work = 0
    while not stepper.done:
        work += stepper.frontier_size
        stepper.step()
    return work
