"""The parallel runtime: equality, degradation, cancellation, lifecycle.

The load-bearing property is **bit-identical answers**: for any graph
(cycles included), any pattern (Kleene stars included), any worker
count, any strategy, the parallel evaluation returns exactly the set the
centralized product kernel returns.  Process mode is exercised against a
real spawned pool; the hypothesis sweep uses ``inline=True`` (same
driver, same worker kernel, no process spawn per example).

Degradation reuses the decomposition oracle: with sites dead, the
answer equals the centralized answer over ``without_sites(dead)`` and
the completeness report says so.  Cooperative cancellation returns a
sound partial lower bound, never an exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import rpq_nodes
from repro.core.graph import Graph
from repro.datasets import generate_web
from repro.distributed import (
    ParallelError,
    ParallelRpqPool,
    build_partition,
    parallel_rpq,
)
from repro.distributed.decompose import SiteRuntime
from repro.distributed.sites import DistributedGraph
from repro.resilience import FaultInjector, PartialResult, RetryPolicy
from repro.service.governor import QueryControl

PATTERNS = ["link*", "(link|xref)*", "link.link.xref", "xref.link*", "_*.xref"]


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


@pytest.fixture(scope="module")
def process_pool():
    """One spawned 2-worker pool shared by the process-mode tests (spawn
    plus import costs real seconds per worker; the pool exists to be
    reused across queries, so the tests reuse it too)."""
    fg = generate_web(120, seed=5).freeze()
    with ParallelRpqPool(fg, 2, strategy="greedy") as pool:
        yield fg, pool


class TestProcessMode:
    @pytest.mark.parametrize(
        "pattern", ["link*", "(link|keyword)*", "link.link", "_*.keyword"]
    )
    def test_matches_centralized(self, process_pool, pattern):
        fg, pool = process_pool
        result = pool.run(pattern)
        assert set(result.nodes) == rpq_nodes(fg, pattern)
        assert result.completeness.complete

    def test_cyclic_graph_with_kleene_star(self, process_pool):
        fg, pool = process_pool
        # generate_web graphs are cyclic by construction; also check a
        # start node other than the root
        start = next(iter(fg.nodes()))
        result = pool.run("link*", start)
        assert set(result.nodes) == rpq_nodes(fg, "link*", start)

    def test_stats_accounting(self, process_pool):
        fg, pool = process_pool
        result = pool.run("(link|keyword)*")
        stats = result.stats
        assert stats.num_sites == 2
        assert stats.strategy == "greedy"
        assert stats.supersteps == len(stats.work) >= 1
        assert stats.total_work > 0
        assert stats.messages == sum(stats.messages_per_site)
        assert stats.straggler_ratio >= 1.0
        assert stats.makespan <= stats.total_work

    def test_single_worker_never_messages(self):
        fg = generate_web(60, seed=2).freeze()
        with ParallelRpqPool(fg, 1) as pool:
            result = pool.run("(link|keyword)*")
            assert set(result.nodes) == rpq_nodes(fg, "(link|keyword)*")
            assert result.stats.messages == 0
            assert result.stats.supersteps == 1

    def test_worker_error_surfaces_as_parallel_error(self, process_pool):
        fg, pool = process_pool
        with pytest.raises(Exception):  # compile rejects before workers run
            pool.run("(")


class TestInlineEquality:
    @st.composite
    @staticmethod
    def graphs(draw, max_nodes: int = 10):
        n = draw(st.integers(1, max_nodes))
        g = Graph()
        nodes = [g.new_node() for _ in range(n)]
        g.set_root(nodes[0])
        for _ in range(draw(st.integers(0, 20))):
            g.add_edge(
                draw(st.sampled_from(nodes)),
                draw(st.sampled_from(["link", "xref", "cite"])),
                draw(st.sampled_from(nodes)),
            )
        return g

    @given(
        graphs(),
        st.sampled_from(
            ["link*", "(link|xref)*", "link.xref", "(link.xref)*.cite", "_*.cite"]
        ),
        st.integers(1, 4),
        st.sampled_from(["hash", "label", "greedy"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_parallel_equals_centralized(self, g, pattern, k, strategy):
        fg = g.freeze()
        result = parallel_rpq(fg, pattern, num_workers=k, strategy=strategy, inline=True)
        assert set(result.nodes) == rpq_nodes(fg, pattern)
        assert result.completeness.complete

    def test_kleene_star_over_a_pure_cycle(self):
        g = Graph()
        nodes = [g.new_node() for _ in range(6)]
        g.set_root(nodes[0])
        for i in range(6):
            g.add_edge(nodes[i], "link", nodes[(i + 1) % 6])
        fg = g.freeze()
        result = parallel_rpq(fg, "link*", num_workers=3, inline=True)
        assert set(result.nodes) == set(nodes) == rpq_nodes(fg, "link*")


class TestDeadSites:
    NUM_SITES = 4

    def _pool_and_oracle(self, dead, pattern, inline=True):
        g = web_graph()
        fg = g.freeze()
        part = build_partition(fg, self.NUM_SITES, "hash")
        # mirror the flat table into a DistributedGraph for without_sites
        site_map = {node: part.site_of[pos] for pos, node in enumerate(fg.node_ids)}
        dist = DistributedGraph(g, site_map, self.NUM_SITES)
        runtime = SiteRuntime(
            self.NUM_SITES,
            injector=FaultInjector(seed=0, outages={f"site:{s}" for s in dead}),
            policy=RetryPolicy(max_attempts=5, base_delay=0.01),
        )
        with ParallelRpqPool(fg, self.NUM_SITES, partition=part, inline=inline) as pool:
            result = pool.run(pattern, runtime=runtime)
        oracle = rpq_nodes(dist.without_sites(dead), pattern)
        return result, oracle

    @pytest.mark.parametrize("dead_site", range(NUM_SITES))
    @pytest.mark.parametrize("pattern", ["link*", "(link|xref)*"])
    def test_answer_matches_amputated_graph(self, dead_site, pattern):
        result, oracle = self._pool_and_oracle({dead_site}, pattern)
        assert set(result.nodes) == oracle

    def test_two_dead_sites(self):
        result, oracle = self._pool_and_oracle({1, 3}, "(link|xref)*")
        assert set(result.nodes) == oracle
        assert not result.completeness.complete
        assert result.completeness.failed_keys() <= {"site:1", "site:3"}

    def test_dead_site_oracle_in_process_mode(self):
        result, oracle = self._pool_and_oracle({2}, "(link|xref)*", inline=False)
        assert set(result.nodes) == oracle
        assert not result.completeness.complete
        assert "site:2" in result.completeness.failed_keys()

    def test_as_partial_carries_the_report(self):
        result, _ = self._pool_and_oracle({0}, "(link|xref)*")
        partial = PartialResult(result.nodes, result.completeness)
        assert partial.value == result.nodes
        assert partial.completeness is result.completeness


class TestCancellation:
    def test_budget_interrupt_yields_partial_lower_bound(self):
        fg = web_graph(200).freeze()
        full = rpq_nodes(fg, "(link|xref)*")
        control = QueryControl("q-budget", budget=40)
        result = parallel_rpq(
            fg, "(link|xref)*", num_workers=4, inline=True, control=control
        )
        assert set(result.nodes) <= full
        assert not result.completeness.complete
        assert {f.kind for f in result.completeness.failures} == {"budget"}

    def test_pre_cancelled_query_does_no_work(self):
        fg = web_graph(50).freeze()
        control = QueryControl("q-cancel")
        control.cancel()
        result = parallel_rpq(
            fg, "(link|xref)*", num_workers=2, inline=True, control=control
        )
        assert not result.completeness.complete
        assert {f.kind for f in result.completeness.failures} == {"cancelled"}
        assert result.stats.total_work == 0

    def test_budget_interrupt_in_process_mode(self):
        fg = web_graph(200).freeze()
        full = rpq_nodes(fg, "(link|xref)*")
        with ParallelRpqPool(fg, 2, strategy="hash") as pool:
            control = QueryControl("q-budget-proc", budget=40)
            result = pool.run("(link|xref)*", control=control)
            # the pool survives an interrupted query and serves the next
            clean = pool.run("(link|xref)*")
        assert set(result.nodes) <= full
        assert not result.completeness.complete
        assert set(clean.nodes) == full
        assert clean.completeness.complete


class TestLifecycle:
    def test_run_before_start_raises(self):
        fg = web_graph(10).freeze()
        pool = ParallelRpqPool(fg, 2, inline=True)
        with pytest.raises(ParallelError, match="not started"):
            pool.run("link*")

    def test_run_after_close_raises(self):
        fg = web_graph(10).freeze()
        pool = ParallelRpqPool(fg, 2, inline=True).start()
        pool.close()
        with pytest.raises(ParallelError):
            pool.run("link*")

    def test_closed_pool_cannot_restart(self):
        fg = web_graph(10).freeze()
        pool = ParallelRpqPool(fg, 2, inline=True).start()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelError, match="closed"):
            pool.start()

    def test_partition_site_count_must_match(self):
        fg = web_graph(10).freeze()
        part = build_partition(fg, 3, "hash")
        with pytest.raises(ValueError, match="3 sites"):
            ParallelRpqPool(fg, 2, partition=part)
