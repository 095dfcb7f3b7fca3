"""Tests for the bounded LRU plan cache and its metrics accounting."""

import pytest

from repro.automata.dfa import LazyDfa
from repro.automata.nfa import build_nfa
from repro.automata.plan_cache import DEFAULT_PLAN_CACHE, PlanCache, cached_compile
from repro.automata.product import rpq_nodes
from repro.automata.regex import parse_path_regex
from repro.core.builder import from_obj
from repro.obs import QueryProfile
from repro.obs.metrics import MetricsRegistry


def movie_graph():
    return from_obj(
        {
            "Entry": [
                {"Movie": {"Title": "Casablanca", "Year": 1942}},
                {"Movie": {"Title": "Play it again, Sam", "Director": "Allen"}},
            ]
        }
    )


class TestLookup:
    def test_miss_then_hit_returns_same_plan(self):
        cache = PlanCache(registry=MetricsRegistry())
        plan, hit = cache.lookup("Entry.Movie")
        assert not hit
        again, hit2 = cache.lookup("Entry.Movie")
        assert hit2
        assert again is plan

    def test_get_is_lookup_without_flag(self):
        cache = PlanCache(registry=MetricsRegistry())
        assert cache.get("a.b") is cache.get("a.b")

    def test_build_callback_used_on_miss_only(self):
        cache = PlanCache(registry=MetricsRegistry())
        calls = []

        def build():
            calls.append(1)
            return LazyDfa(build_nfa(parse_path_regex("a|b")))

        plan = cache.get("custom-key", build)
        assert cache.get("custom-key", build) is plan
        assert len(calls) == 1

    def test_contains_and_len(self):
        cache = PlanCache(registry=MetricsRegistry())
        assert "x" not in cache
        cache.get("x")
        assert "x" in cache
        assert len(cache) == 1

    def test_cached_plan_answers_like_fresh_compile(self):
        g = movie_graph()
        cache = PlanCache(registry=MetricsRegistry())
        cold = rpq_nodes(g, "Entry.Movie.Title", plan_cache=cache)
        hot = rpq_nodes(g, "Entry.Movie.Title", plan_cache=cache)
        assert cold == hot == rpq_nodes(g, "Entry.Movie.Title")


class TestEviction:
    def test_lru_evicts_oldest_past_capacity(self):
        cache = PlanCache(capacity=2, registry=MetricsRegistry())
        cache.get("a")
        cache.get("b")
        cache.get("c")
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_hit_refreshes_recency(self):
        cache = PlanCache(capacity=2, registry=MetricsRegistry())
        cache.get("a")
        cache.get("b")
        cache.get("a")  # a is now most recent
        cache.get("c")  # evicts b, not a
        assert "a" in cache
        assert "b" not in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0, registry=MetricsRegistry())

    def test_clear_keeps_counter_history(self):
        cache = PlanCache(registry=MetricsRegistry())
        cache.get("a")
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["size"] == 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestMetrics:
    def test_counters_and_size_gauge(self):
        registry = MetricsRegistry()
        cache = PlanCache(capacity=2, name="t", registry=registry)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        cache.get("c")  # evicts a
        snapshot = registry.as_dict()
        assert snapshot["t_hits"] == 1
        assert snapshot["t_misses"] == 3
        assert snapshot["t_evictions"] == 1
        assert snapshot["t_size"] == 2

    def test_stats_snapshot(self):
        cache = PlanCache(capacity=3, name="s", registry=MetricsRegistry())
        cache.get("a")
        assert cache.stats() == {
            "capacity": 3,
            "size": 1,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
        }


class TestProfiledAccounting:
    def test_cold_run_charges_all_states_hot_run_charges_none(self):
        """A hit hands back a plan whose states earlier queries paid for,
        so the second identical profiled run reports dfa_states == 0."""
        g = movie_graph()
        cache = PlanCache(registry=MetricsRegistry())
        cold_profile = QueryProfile()
        cold_nodes = rpq_nodes(
            g, "Entry.Movie.Title", plan_cache=cache, profile=cold_profile
        )
        assert cold_profile.as_dict()["dfa_states"] > 0
        hot_profile = QueryProfile()
        hot_nodes = rpq_nodes(
            g, "Entry.Movie.Title", plan_cache=cache, profile=hot_profile
        )
        assert hot_nodes == cold_nodes
        assert hot_profile.as_dict()["dfa_states"] == 0
        # everything else about the traversal is identical
        cold_counts = cold_profile.as_dict()
        hot_counts = hot_profile.as_dict()
        for key in ("nodes_visited", "edges_expanded", "product_pairs"):
            assert cold_counts[key] == hot_counts[key]

    def test_uncached_profiled_runs_report_identically(self):
        g = movie_graph()
        first = QueryProfile()
        rpq_nodes(g, "Entry.Movie.Title", profile=first)
        second = QueryProfile()
        rpq_nodes(g, "Entry.Movie.Title", profile=second)
        assert first.as_dict() == second.as_dict()


def test_cached_compile_uses_default_cache():
    plan = cached_compile("ZZZ.test.pattern")
    assert "ZZZ.test.pattern" in DEFAULT_PLAN_CACHE
    assert cached_compile("ZZZ.test.pattern") is plan
