"""Bounded LRU cache of compiled RPQ plans (pattern text -> LazyDfa).

Molyneux's Delta implementation (PAPERS.md) found query/plan caching to
be the decisive optimization for a semistructured engine, and the seed
code paid the opposite tax: every ``rpq_nodes(graph, "Entry.Movie.Title")``
call re-parsed the pattern, rebuilt the Thompson NFA, and re-determinized
from scratch.  A :class:`PlanCache` interns compiled
:class:`~repro.automata.dfa.LazyDfa` plans by their pattern text so the
parse/build/determinize work -- and the lazily materialized DFA states
and label truth vectors accumulated by earlier runs -- are reused across
calls.

Plans are immutable-by-convention (a ``LazyDfa`` only ever *grows* its
memo tables, never changes an answer), so sharing one plan between
callers is safe.  The cache is a plain bounded LRU: no clocks, no
TTLs; eviction on insert past capacity.  Every cache operation --
lookup, clear, stats -- holds one re-entrant lock, so the
asyncio server's worker tasks (and any caller's threads) can share a
cache without corrupting the LRU order or the hit/miss/size accounting;
the lock also covers the counter increments themselves, which are plain
read-modify-write and not atomic on their own.  A miss compiles
``build()`` under the lock: plans are cheap to build relative to a
duplicated-compile race, and the lock being re-entrant means a
``build`` that consults the same cache cannot deadlock.

Accounting lives in the module-level :data:`PLAN_METRICS`
:class:`~repro.obs.MetricsRegistry` (the same always-on pattern as
``STORAGE_METRICS``): each cache registers ``<name>_hits`` /
``<name>_misses`` / ``<name>_evictions`` counters and a ``<name>_size``
gauge, surfaced by the ``profile`` and ``stats --json`` CLI subcommands.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from ..obs.metrics import MetricsRegistry
from .dfa import LazyDfa
from .nfa import build_nfa
from .regex import parse_path_regex

__all__ = ["PlanCache", "PLAN_METRICS", "DEFAULT_PLAN_CACHE", "cached_compile"]

#: Always-on accounting for every plan cache in the process.
PLAN_METRICS = MetricsRegistry()


class PlanCache:
    """A bounded LRU of compiled plans, keyed by pattern text.

    ``lookup`` returns ``(plan, was_hit)`` -- the flag is what the
    profiled RPQ entry points use for correct ``dfa_states``
    accounting: a cache hit hands back a plan whose states were
    materialized by *earlier* queries, so only states the current query
    adds are its own work; a miss compiles fresh and every state the
    run materializes (including the start state) is charged to it.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        name: str = "plan_cache",
        registry: MetricsRegistry = PLAN_METRICS,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._lock = threading.RLock()
        self._plans: "OrderedDict[str, LazyDfa]" = OrderedDict()
        self._hits = registry.counter(f"{name}_hits")
        self._misses = registry.counter(f"{name}_misses")
        self._evictions = registry.counter(f"{name}_evictions")
        self._size = registry.gauge(f"{name}_size")

    def lookup(
        self, pattern: str, build: "Callable[[], LazyDfa] | None" = None
    ) -> tuple[LazyDfa, bool]:
        """The plan for ``pattern`` plus whether it was already cached.

        On a miss the plan comes from ``build()`` when given (callers
        that already hold a parsed AST avoid re-parsing), else from
        compiling ``pattern`` through the standard path-regex grammar.
        """
        with self._lock:
            plan = self._plans.get(pattern)
            if plan is not None:
                self._plans.move_to_end(pattern)
                self._hits.inc()
                return plan, True
            self._misses.inc()
            if build is not None:
                plan = build()
            else:
                plan = LazyDfa(build_nfa(parse_path_regex(pattern)))
            self._plans[pattern] = plan
            if len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._plans))
            return plan, False

    def get(self, pattern: str, build: "Callable[[], LazyDfa] | None" = None) -> LazyDfa:
        """The plan for ``pattern`` (compiled on first use, then reused)."""
        return self.lookup(pattern, build)[0]

    def clear(self) -> None:
        """Drop every cached plan (counters keep their history)."""
        with self._lock:
            self._plans.clear()
            self._size.set(0)

    def stats(self) -> dict[str, int]:
        """A snapshot of the cache's accounting (JSON-ready)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._plans),
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, pattern: str) -> bool:
        with self._lock:
            return pattern in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PlanCache {self.name} size={len(self._plans)}/{self.capacity} "
            f"hits={self._hits.value} misses={self._misses.value}>"
        )


#: The process-wide default cache the evaluators share.
DEFAULT_PLAN_CACHE = PlanCache()


def cached_compile(pattern: str, cache: "PlanCache | None" = None) -> LazyDfa:
    """Compile ``pattern`` through a plan cache (default: the shared one)."""
    return (cache if cache is not None else DEFAULT_PLAN_CACHE).get(pattern)
