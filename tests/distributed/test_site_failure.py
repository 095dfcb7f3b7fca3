"""Site-failure tests: kill each site in turn, check the partial answer.

The reference semantics ("oracle") is
:meth:`~repro.distributed.sites.DistributedGraph.without_sites`: a
resilient evaluation with a set of sites permanently down must produce
exactly the answer a centralized evaluation produces over the amputated
graph, and its :class:`~repro.resilience.Completeness` report must name
exactly the sites that were lost.
"""

import pytest

from repro.automata.product import rpq_nodes
from repro.core.bisim import bisimilar
from repro.core.graph import Graph
from repro.core.labels import sym
from repro.datasets import generate_web
from repro.distributed import (
    SiteRuntime,
    distributed_rpq,
    distributed_srec,
    partition_graph,
)
from repro.resilience import FaultInjector, RetryPolicy
from repro.unql import srec
from repro.unql.sstruct import keep_edge

NUM_SITES = 4
PATTERNS = ["link*", "(link|xref)*", "link.link.xref"]


def web_graph(n: int = 40) -> Graph:
    """Chains with cross links and a cycle (same shape as test_decompose)."""
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for i in range(n - 1):
        g.add_edge(nodes[i], "link", nodes[i + 1])
    for i in range(0, n - 5, 5):
        g.add_edge(nodes[i], "xref", nodes[(i * 3 + 7) % n])
    g.add_edge(nodes[n - 1], "link", nodes[0])
    return g


def run_with_dead_sites(dist, pattern, dead, threshold=3):
    injector = FaultInjector(seed=0, outages={f"site:{s}" for s in dead})
    runtime = SiteRuntime(
        dist,
        injector=injector,
        policy=RetryPolicy(max_attempts=5, base_delay=0.01),
        failure_threshold=threshold,
    )
    results, stats = distributed_rpq(dist, pattern, runtime=runtime)
    return (results, stats, runtime.completeness()), injector


class TestKillEachSite:
    @pytest.mark.parametrize("dead_site", range(NUM_SITES))
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("strategy", ["bfs", "hash"])
    def test_partial_answer_matches_oracle(self, dead_site, pattern, strategy):
        dist = partition_graph(web_graph(), NUM_SITES, strategy=strategy)
        (results, _, report), _ = run_with_dead_sites(dist, pattern, {dead_site})
        assert results == rpq_nodes(dist.without_sites({dead_site}), pattern)
        if report.failures:
            assert report.failed_keys() == {f"site:{dead_site}"}

    @pytest.mark.parametrize("dead_site", range(NUM_SITES))
    def test_report_names_exactly_the_lost_site(self, dead_site):
        """With a strongly-connecting pattern every site is contacted, so
        the loss is always observed and always attributed correctly."""
        dist = partition_graph(web_graph(), NUM_SITES, strategy="hash")
        (_, _, report), _ = run_with_dead_sites(dist, "(link|xref)*", {dead_site})
        assert not report.complete
        assert report.is_lower_bound
        assert report.failed_keys() == {f"site:{dead_site}"}

    @pytest.mark.parametrize("dead_site", range(NUM_SITES))
    def test_breaker_bounds_contacts(self, dead_site):
        threshold = 3
        dist = partition_graph(web_graph(), NUM_SITES, strategy="hash")
        _, injector = run_with_dead_sites(
            dist, "(link|xref)*", {dead_site}, threshold=threshold
        )
        assert 0 < injector.calls(f"site:{dead_site}") <= threshold

    def test_two_dead_sites(self):
        dist = partition_graph(web_graph(), NUM_SITES, strategy="hash")
        (results, _, report), _ = run_with_dead_sites(dist, "(link|xref)*", {1, 3})
        assert report.failed_keys() == {"site:1", "site:3"}
        assert results == rpq_nodes(dist.without_sites({1, 3}), "(link|xref)*")

    def test_all_sites_alive_is_exact(self):
        dist = partition_graph(web_graph(), NUM_SITES)
        (results, _, report), _ = run_with_dead_sites(dist, "(link|xref)*", set())
        assert report.complete and not report.failures
        baseline, _ = distributed_rpq(dist, "(link|xref)*")
        assert results == baseline

    def test_lost_work_is_accounted(self):
        dist = partition_graph(web_graph(), NUM_SITES, strategy="hash")
        (_, _, report), _ = run_with_dead_sites(dist, "(link|xref)*", {2})
        assert report.lost > 0  # dropped configurations, counted not hidden


def upper(label, _view):
    return keep_edge(sym(str(label.value).upper()) if label.is_symbol else label)


class TestSrecSiteFailure:
    @pytest.mark.parametrize("dead_site", range(NUM_SITES))
    def test_degraded_srec_matches_oracle(self, dead_site):
        web = generate_web(60, seed=77)
        dist = partition_graph(web, NUM_SITES, strategy="hash")
        injector = FaultInjector(seed=0, outages={f"site:{dead_site}"})
        runtime = SiteRuntime(
            dist, injector=injector, policy=RetryPolicy(max_attempts=4, base_delay=0.01)
        )
        out, _ = distributed_srec(dist, upper, runtime=runtime)
        report = runtime.completeness()
        assert report.failed_keys() == {f"site:{dead_site}"}
        assert bisimilar(out, srec(dist.without_sites({dead_site}), upper))

    def test_transient_noise_srec_is_exact(self):
        web = generate_web(60, seed=78)
        dist = partition_graph(web, NUM_SITES, strategy="hash")
        injector = FaultInjector(seed=5, fail_rate=0.3)
        runtime = SiteRuntime(
            dist,
            injector=injector,
            policy=RetryPolicy(max_attempts=8, base_delay=0.01),
            failure_threshold=10,
        )
        out, stats = distributed_srec(dist, upper, runtime=runtime)
        report = runtime.completeness()
        assert report.complete
        assert report.retries > 0
        centralized, _ = distributed_srec(dist, upper)
        assert bisimilar(out, centralized)
        assert stats.total_work == sum(
            len(web.edges_from(n)) for n in web.reachable()
        )
