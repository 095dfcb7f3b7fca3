"""Concurrency stress for :class:`PlanCache`.

The server shares one cache between every worker task, and before the
lock landed a concurrent burst could corrupt the LRU ``OrderedDict``
mid-``move_to_end`` or lose counter increments (``Counter.inc`` is a
plain read-modify-write).  These tests hammer a small cache from many
threads and then audit the invariants the accounting is supposed to
keep: bounded size, exact hit+miss totals, and a size gauge that
matches reality.
"""

import threading

from repro.automata.plan_cache import PLAN_METRICS, PlanCache

THREADS = 8
ROUNDS = 400


def _hammer(cache: PlanCache, seed: int, patterns: "list[str]", errors: "list[BaseException]") -> None:
    try:
        state = seed
        for i in range(ROUNDS):
            state = (state * 1103515245 + 12345) % (1 << 31)  # per-thread LCG
            pattern = patterns[state % len(patterns)]
            plan, _hit = cache.lookup(pattern)
            assert plan is not None
            if i % 13 == 0:
                cache.stats()
                len(cache)
                pattern in cache
    except BaseException as exc:  # pragma: no cover - only on regression
        errors.append(exc)


def test_many_threads_do_not_corrupt_lru_or_metrics() -> None:
    registry_name = "stress_cache"
    cache = PlanCache(capacity=16, name=registry_name)
    # More distinct patterns than capacity, so eviction churns constantly.
    patterns = [f"A{'.B' * (i % 5)}.L{i}" for i in range(48)]

    errors: "list[BaseException]" = []
    threads = [
        threading.Thread(target=_hammer, args=(cache, seed, patterns, errors))
        for seed in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert errors == []

    stats = cache.stats()
    # Bounded: never grew past capacity, and the gauge tells the truth.
    assert stats["size"] <= stats["capacity"] == 16
    assert stats["size"] == len(cache)
    assert PLAN_METRICS.gauge(f"{registry_name}_size").value == len(cache)
    # Exact accounting: every lookup was either a hit or a miss, and no
    # increment was lost to a read-modify-write race.
    assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
    # Each eviction removed exactly one plan.
    assert stats["misses"] - stats["evictions"] == stats["size"]
    # The LRU survived: every cached plan still resolves as a hit.
    for pattern in list(cache._plans):
        _plan, hit = cache.lookup(pattern)
        assert hit


def test_concurrent_clear_is_safe() -> None:
    cache = PlanCache(capacity=8, name="stress_clear_cache")
    patterns = [f"X.Y{i}" for i in range(24)]
    stop = threading.Event()
    errors: "list[BaseException]" = []

    def churn() -> None:
        try:
            i = 0
            while not stop.is_set():
                cache.lookup(patterns[i % len(patterns)])
                i += 1
        except BaseException as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    def wipe() -> None:
        try:
            for _ in range(200):
                cache.clear()
        except BaseException as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    workers = [threading.Thread(target=churn) for _ in range(4)]
    wiper = threading.Thread(target=wipe)
    for t in workers:
        t.start()
    wiper.start()
    wiper.join()
    stop.set()
    for t in workers:
        t.join()

    assert errors == []
    assert len(cache) <= 8


def test_reentrant_build_does_not_deadlock() -> None:
    """A ``build`` callback may consult the same cache (RLock contract)."""
    cache = PlanCache(capacity=4, name="stress_reentrant_cache")

    def build():
        inner, _ = cache.lookup("A.B")  # re-enters lookup under the lock
        assert inner is not None
        from repro.automata.dfa import LazyDfa
        from repro.automata.nfa import build_nfa
        from repro.automata.regex import parse_path_regex

        return LazyDfa(build_nfa(parse_path_regex("A.C")))

    plan, hit = cache.lookup("A.C", build)
    assert plan is not None and not hit
    assert "A.B" in cache and "A.C" in cache
