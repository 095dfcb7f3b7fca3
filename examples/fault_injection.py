"""Failure injection: querying data that lives on a 1997 network.

Run::

    python examples/fault_injection.py

Section 4's external data ([28]) and distributed evaluation ([35]) both
assume someone else's machine answers.  This example injects the three
classic failures -- transient noise, a permanent outage, a dead site --
and shows the resilience layer's three answers: retry until exact,
degrade to a reported lower bound, and stop hammering what is down.

Every failure here is *scheduled*: the FaultInjector is a pure function
of its seed, so re-running this script replays the identical outage.
"""

from repro.automata.product import rpq_nodes
from repro.core.builder import from_obj
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


def build_catalog():
    """A local movie catalog whose detail pages live on the (1997) web."""
    g = from_obj({"Entry": [{"Id": i} for i in range(5)]})
    for i, node in enumerate(sorted(rpq_nodes(g, "Entry"))):
        detail = g.new_node()
        g.add_edge(node, "Detail", detail)
        ExternalGraph.add_stub(g, detail, f"page-{i}")
    return g


def fetch_page(key: str):
    i = int(key.rsplit("-", 1)[1])
    return from_obj({"Movie": {"Title": f"Movie #{i}", "Year": 1940 + i}})


def main() -> None:
    print("=== 1. Transient noise: retries make the answer exact ===")
    clock = SimulatedClock()
    events = EventLog(clock)
    injector = FaultInjector(seed=7, fail_rate=0.3, clock=clock)
    ext = ExternalGraph(
        build_catalog(),
        injector.wrap_fetcher(fetch_page),
        policy=RetryPolicy(max_attempts=6, base_delay=0.05),
        on_failure="partial",
        clock=clock,
        events=events,
    )
    result = PartialResult(rpq_nodes(ext, "Entry.Detail.Movie.Title"), completeness_of(ext))
    print(f"   every fetch fails 30% of the time (seed 7)")
    print(f"   titles found: {len(result.value)} of 5, exact: {result.exact}")
    print(f"   fetch attempts: {injector.total_calls} for {ext.fetch_count} pages"
          f" ({result.completeness.retries} retries)")
    print(f"   simulated backoff time: {clock.slept:.2f}s (wall time: none)")
    assert result.exact and len(result.value) == 5

    print("\n=== 2. Permanent outage: a reported lower bound, not a crash ===")
    clock = SimulatedClock()
    injector = FaultInjector(seed=7, outages={"page-4"}, clock=clock)
    ext = ExternalGraph(
        build_catalog(),
        injector.wrap_fetcher(fetch_page),
        policy=RetryPolicy(max_attempts=4, base_delay=0.05),
        breaker=CircuitBreaker(3, 60.0, clock=clock),
        on_failure="partial",
        clock=clock,
    )
    result = PartialResult(rpq_nodes(ext, "Entry.Detail.Movie.Title"), completeness_of(ext))
    report = result.completeness
    print(f"   page-4's server is gone; the query still answers:")
    print(f"   titles found: {len(result.value)} of 5 (the rest still answer)")
    print(f"   {report.describe()}")
    print(f"   contacts with the dead server: {injector.calls('page-4')} "
          f"(breaker threshold 3, then it stops asking)")
    assert report.is_lower_bound and report.failed_keys() == {"page-4"}
    assert injector.calls("page-4") <= 3

    print("\n=== 3. A dead site in a distributed query ===")
    g = build_catalog()
    dist = partition_graph(g, 4, strategy="hash")
    injector = FaultInjector(seed=0, outages={"site:2"})
    runtime = SiteRuntime(
        dist,
        injector=injector,
        policy=RetryPolicy(max_attempts=4, base_delay=0.05),
        failure_threshold=3,
    )
    results, stats = distributed_rpq(dist, "Entry.Id", runtime=runtime)
    report = runtime.completeness()
    print(f"   4 sites, site 2 permanently down")
    print(f"   matched {len(results)} node(s) in {stats.supersteps} superstep(s)")
    print(f"   {report.describe()}")
    # the oracle: the same query over the graph with site 2 amputated
    oracle = rpq_nodes(dist.without_sites({2}), "Entry.Id")
    print(f"   equals centralized evaluation minus site 2: {results == oracle}")
    assert results == oracle

    print("\nSame seeds, same failures, same answers -- chaos as a regression test.")


if __name__ == "__main__":
    main()
