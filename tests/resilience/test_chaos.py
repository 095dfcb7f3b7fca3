"""Chaos suite: queries under injected failures (the acceptance tests).

Two regimes, both driven by a seeded :class:`FaultInjector` so every run
replays the same failure schedule:

* **transient noise** (30% per-contact failure): retries must make every
  E1 browsing query and E2 path query over external data come out
  *exact* -- same answer as the fault-free run, ``complete=True``;
* **permanent outage**: the answer degrades to a sound lower bound, the
  :class:`Completeness` report names exactly what was lost, and the
  circuit breaker stops contacting the dead dependency after its
  documented trip threshold.
"""

import pytest

from repro.automata.product import rpq_nodes
from repro.browse import (
    find_attribute_names,
    find_integers_greater_than,
    find_value,
)
from repro.core.builder import from_obj
from repro.core.graph import Graph
from repro.distributed import SiteRuntime, distributed_rpq, partition_graph
from repro.resilience import (
    CircuitBreaker,
    EventLog,
    FaultInjector,
    PartialResult,
    RetryPolicy,
    SimulatedClock,
    completeness_of,
)
from repro.storage.external import ExternalGraph

NUM_REGIONS = 6


def build_base() -> Graph:
    """A catalog whose per-movie detail pages live externally."""
    g = from_obj({"Entry": [{"Id": i} for i in range(NUM_REGIONS)]})
    entries = sorted(rpq_nodes(g, "Entry"))
    for i, node in enumerate(entries):
        detail = g.new_node()
        g.add_edge(node, "Detail", detail)
        ExternalGraph.add_stub(g, detail, f"page-{i}")
    return g


def fetch_page(key: str) -> Graph:
    i = int(key.rsplit("-", 1)[1])
    return from_obj({"Movie": {"Title": f"T{i}", "Year": 1900 + i}})


def chaotic_external(
    *,
    seed: int = 7,
    fail_rate: float = 0.3,
    outages=(),
    max_attempts: int = 6,
    threshold: int = 8,
    on_failure: str = "partial",
):
    # the default breaker threshold sits above max_attempts: transient
    # noise inside one fetch's retry budget must not trip it; outage
    # tests pass a tighter threshold explicitly
    clock = SimulatedClock()
    events = EventLog(clock)
    injector = FaultInjector(
        seed=seed, fail_rate=fail_rate, outages=outages, clock=clock
    )
    ext = ExternalGraph(
        build_base(),
        injector.wrap_fetcher(fetch_page),
        policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.01),
        breaker=CircuitBreaker(threshold, 1000.0, clock=clock, events=events),
        on_failure=on_failure,
        clock=clock,
        events=events,
    )
    return ext, injector, events


def calm_external():
    """The fault-free oracle: same data, nothing injected."""
    return ExternalGraph(build_base(), fetch_page)


def answered(query, ext, *args):
    """``query``'s answer over ``ext``, paired with the graph's completeness."""
    return PartialResult(query(ext, *args), completeness_of(ext))


class TestTransientFailures:
    """30% injected failure per fetch: retries make every answer exact."""

    def test_e2_rpq_exact_under_noise(self):
        ext, injector, _ = chaotic_external()
        result = answered(rpq_nodes, ext, "Entry.Detail.Movie.Title")
        assert result.exact
        assert result.completeness.complete
        # node allocation is deterministic, so the answer sets are equal
        assert result.value == rpq_nodes(calm_external(), "Entry.Detail.Movie.Title")
        assert len(result.value) == NUM_REGIONS
        # noise actually happened and retries actually absorbed it
        assert injector.total_calls > ext.fetch_count
        assert result.completeness.retries > 0

    def test_e1_find_value_exact_under_noise(self):
        ext, _, _ = chaotic_external()
        result = answered(find_value, ext, "T3")
        assert result.exact
        assert [str(f) for f in result.value] == [
            str(f) for f in answered(find_value, calm_external(), "T3").value
        ]

    def test_e1_integers_exact_under_noise(self):
        ext, _, _ = chaotic_external()
        result = answered(find_integers_greater_than, ext, 1902)
        assert result.exact
        calm = answered(find_integers_greater_than, calm_external(), 1902)
        assert [str(f) for f in result.value] == [str(f) for f in calm.value]
        assert len(result.value) == 3  # years 1903..1905

    def test_e1_attribute_names_exact_under_noise(self):
        ext, _, _ = chaotic_external()
        result = answered(find_attribute_names, ext, "Tit%")
        assert result.exact
        assert len(result.value) == NUM_REGIONS

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exactness_across_seeds(self, seed):
        """No lucky seed: several schedules, all absorbed by retries."""
        ext, _, _ = chaotic_external(seed=seed)
        result = answered(rpq_nodes, ext, "Entry.Detail.Movie.Year")
        assert result.exact
        assert len(result.value) == NUM_REGIONS

    def test_distributed_exact_under_noise(self):
        g = build_base()  # any plain graph works for the distributed engine
        dist = partition_graph(g, 4)
        injector = FaultInjector(seed=11, fail_rate=0.3)
        runtime = SiteRuntime(
            dist, injector=injector, policy=RetryPolicy(max_attempts=6, base_delay=0.01)
        )
        results, _ = distributed_rpq(dist, "Entry.Id", runtime=runtime)
        assert runtime.completeness().complete
        baseline, _ = distributed_rpq(dist, "Entry.Id")
        assert results == baseline


class TestPermanentOutage:
    """A dead dependency: partial answer, named loss, bounded contact."""

    def test_partial_answer_names_the_lost_region(self):
        ext, _, _ = chaotic_external(fail_rate=0.0, outages={"page-2"})
        result = answered(rpq_nodes, ext, "Entry.Detail.Movie.Title")
        report = result.completeness
        assert not result.exact
        assert report.is_lower_bound
        assert report.failed_keys() == {"page-2"}
        assert report.lost == 1
        # everything else still answered: a lower bound, not a crash
        assert len(result.value) == NUM_REGIONS - 1

    def test_describe_is_presentable(self):
        ext, _, _ = chaotic_external(fail_rate=0.0, outages={"page-2"})
        ext.reachable()
        text = ext.completeness().describe()
        assert "PARTIAL" in text and "page-2" in text

    def test_breaker_bounds_contact_with_dead_source(self):
        """The documented trip bound: threshold contacts, then silence."""
        threshold = 3
        ext, injector, events = chaotic_external(
            fail_rate=0.0,
            outages={"page-1"},
            max_attempts=10,  # retry budget far beyond the breaker's patience
            threshold=threshold,
        )
        ext.reachable()
        assert injector.calls("page-1") == threshold
        assert events.count("trip") == 1
        # asking again short-circuits: the dead source is never re-contacted
        ext.retry_failed()
        ext.reachable()
        assert injector.calls("page-1") == threshold
        record = ext.completeness().failures[0]
        assert record.attempts == 0  # the breaker blocked before any attempt
        assert "CircuitOpenError" in record.error

    def test_fail_fast_mode_raises_instead(self):
        ext, _, _ = chaotic_external(
            fail_rate=0.0, outages={"page-0"}, on_failure="raise"
        )
        from repro.resilience import RetriesExhausted

        with pytest.raises(RetriesExhausted):
            ext.reachable()

    def test_noise_plus_outage_compose(self):
        """30% noise on live regions, one region dead: exactly one loss."""
        ext, _, _ = chaotic_external(seed=13, fail_rate=0.3, outages={"page-4"})
        result = answered(rpq_nodes, ext, "Entry.Detail.Movie.Title")
        assert result.completeness.failed_keys() == {"page-4"}
        assert len(result.value) == NUM_REGIONS - 1

    def test_recovery_after_outage_ends(self):
        """retry_failed + a healed source turn a partial answer exact."""
        ext, injector, _ = chaotic_external(fail_rate=0.0, outages={"page-5"})
        ext.reachable()
        assert not ext.completeness().complete
        injector.outages = frozenset()  # the outage ends
        injector.clock.sleep(1000.0)  # breaker cooldown elapses -> half-open
        assert ext.retry_failed() == 1
        ext.reachable()
        report = ext.completeness()
        assert report.complete
        assert report.succeeded == NUM_REGIONS


class TestDistributedOutage:
    def test_single_dead_site_partial_with_trip_bound(self):
        g = build_base()
        dist = partition_graph(g, 4)
        threshold = 3
        injector = FaultInjector(seed=0, outages={"site:1"})
        runtime = SiteRuntime(
            dist,
            injector=injector,
            policy=RetryPolicy(max_attempts=10, base_delay=0.01),
            failure_threshold=threshold,
        )
        results, _ = distributed_rpq(dist, "Entry.Id.#", runtime=runtime)
        report = runtime.completeness()
        assert not report.complete
        assert report.failed_keys() == {"site:1"}
        assert injector.calls("site:1") == threshold
        # sound lower bound: evaluating the amputated graph agrees
        assert results == rpq_nodes(dist.without_sites({1}), "Entry.Id.#")
