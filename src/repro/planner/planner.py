"""The query planner: structural indexes before graph traversal.

One :class:`QueryPlanner` serves one :class:`~repro.core.frozen.
FrozenGraph` snapshot and routes every root-origin regular path query
through up to three strategies, cheapest-first:

1. **Path index** -- a pure exact-label concatenation covered by the
   :class:`~repro.index.PathIndex` answers in one dictionary lookup
   ("path indices on labels", section 4).
2. **DataGuide product** -- any root-origin pattern runs the automaton
   against the (small, deterministic) strong DataGuide instead of the
   data graph; the union of the extents of accepting guide states is the
   *exact* answer (Goldman & Widom, the paper's [22]).
3. **Masked kernel** -- when the caller needs actual traversal (witness
   paths) or the guide exceeded its state budget, the frozen label-
   pruned kernel runs, with a *guide mask* where available: per DFA
   state, the label ids that can advance it somewhere on a root-origin
   path of this snapshot.  The mask turns unbounded live sets (wildcard,
   negation and type guards) into finite partition lists -- each skipped
   edge provably dead-steps the automaton, so answers are unchanged.

The guide is built lazily under a state budget (the strong DataGuide of
a highly-connected graph can be exponential); on
:class:`~repro.schema.GuideTooLargeError` the planner permanently falls
back to strategy 3 without a mask, which is exactly the seed behaviour.
Masks are memoized in the :class:`~repro.automata.plan_cache.PlanCache`
keyed by ``(pattern text, snapshot id)``, so they live and die with the
pattern's compiled plan and can never leak across snapshots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..automata.dfa import LazyDfa
from ..automata.plan_cache import PlanCache
from ..automata.product import _text_of, compile_rpq, rpq_nodes, rpq_witnesses
from ..automata.regex import PathRegex, parse_path_regex
from ..core.frozen import FrozenGraph, freeze
from ..index import GraphIndexes
from ..obs import QueryProfile
from ..schema.dataguide import DataGuide, GuideTooLargeError, guide_product
from .stats import GraphStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.graph import Edge, Graph

__all__ = ["QueryPlanner", "planner_for"]

#: Strategy names accepted by :meth:`QueryPlanner.rpq` (``auto`` routes).
_STRATEGIES = ("auto", "index", "guide", "mask", "kernel")


class QueryPlanner:
    """Strategy routing for path queries over one frozen snapshot.

    ``plan_cache`` (shared with the evaluators when they have one)
    interns compiled plans and guide masks; ``guide_max_states`` bounds
    the DataGuide subset construction (default: ``max(256, 2 * nodes)``);
    ``path_depth`` is the :class:`~repro.index.PathIndex` depth bound.
    """

    def __init__(
        self,
        graph: "Graph | FrozenGraph",
        *,
        plan_cache: "PlanCache | None" = None,
        guide_max_states: "int | None" = None,
        path_depth: int = 4,
    ) -> None:
        self._fg = freeze(graph)
        self._plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(name="planner_plan_cache")
        )
        self._guide_budget = guide_max_states
        self._guide: "DataGuide | None" = None
        self._guide_failed = False
        self._indexes = GraphIndexes(self._fg, path_depth=path_depth)
        self._stats: "GraphStatistics | None" = None
        self._regexes: dict[str, PathRegex] = {}

    # -- the structures ---------------------------------------------------------

    @property
    def graph(self) -> FrozenGraph:
        return self._fg

    @property
    def indexes(self) -> GraphIndexes:
        return self._indexes

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    @property
    def guide(self) -> "DataGuide | None":
        """The snapshot's DataGuide, or ``None`` when over budget.

        Built on first use; a budget failure is remembered, so a graph
        whose guide explodes pays the (bounded) construction attempt
        exactly once.
        """
        if self._guide is None and not self._guide_failed:
            budget = self._guide_budget
            if budget is None:
                budget = max(256, 2 * self._fg.num_nodes)
            try:
                self._guide = DataGuide(self._fg, max_states=budget)
            except GuideTooLargeError:
                self._guide_failed = True
        return self._guide

    @property
    def statistics(self) -> GraphStatistics:
        """Frequency statistics of the snapshot (collected once)."""
        if self._stats is None:
            self._stats = GraphStatistics.from_frozen(self._fg, guide=self.guide)
        return self._stats

    # -- plans and masks --------------------------------------------------------

    def plan_for(self, pattern: "str | PathRegex | LazyDfa") -> LazyDfa:
        """The compiled plan, interned through the planner's cache."""
        if isinstance(pattern, str):
            return self._plan_cache.get(pattern)
        return compile_rpq(pattern)

    def _regex_of(self, pattern: "str | PathRegex | LazyDfa") -> "PathRegex | None":
        """The pattern's AST when recoverable (fixed-path detection)."""
        if isinstance(pattern, PathRegex):
            return pattern
        if isinstance(pattern, str):
            regex = self._regexes.get(pattern)
            if regex is None:
                regex = self._regexes[pattern] = parse_path_regex(pattern)
            return regex
        return None

    def mask_for(
        self, pattern: "str | PathRegex | LazyDfa", dfa: "LazyDfa | None" = None
    ) -> "dict[int, frozenset[int]] | None":
        """The guide mask for ``pattern``, or ``None`` without a guide.

        Memoized in the plan cache under ``(text, snapshot id)`` for
        string patterns; non-string patterns compute fresh (they carry
        no stable key).
        """
        if self.guide is None:
            return None
        text = pattern if isinstance(pattern, str) else None
        if text is not None:
            cached = self._plan_cache.pruning_for(text, self._fg.snapshot_id)
            if cached is not None:
                return cached  # type: ignore[return-value]
        if dfa is None:
            dfa = self.plan_for(pattern)
        mask = self._compute_mask(dfa)
        if text is not None:
            self._plan_cache.store_pruning(text, self._fg.snapshot_id, mask)
        return mask

    def _compute_mask(self, dfa: LazyDfa) -> dict[int, frozenset[int]]:
        """Walk the guide x DFA product; collect live label ids per state.

        Soundness: every configuration ``(node, q)`` a root-origin data
        product reaches has ``node`` in the extent of some guide state
        ``g`` with ``(g, q)`` reachable here (guide completeness).  If a
        label advances the data product out of ``(node, q)``, the guide
        has the same transition out of ``g``, so the label is recorded
        for ``q`` -- the mask can only exclude labels whose every
        occurrence dead-steps the automaton.
        """
        guide = self.guide
        assert guide is not None
        label_index = self._fg.label_index
        mask: dict[int, set[int]] = {}
        start = (0, dfa.start)
        seen = {start}
        stack = [start]
        while stack:
            g, q = stack.pop()
            allowed = mask.setdefault(q, set())
            for label, g2 in guide.transitions_of(g).items():
                q2 = dfa.step(q, label)
                if dfa.is_dead(q2):
                    continue
                lid = label_index.get(label)
                if lid is not None:
                    allowed.add(lid)
                config = (g2, q2)
                if config not in seen:
                    seen.add(config)
                    stack.append(config)
        return {q: frozenset(ids) for q, ids in mask.items()}

    def _note_mask(
        self, profile: QueryProfile, mask: "dict[int, frozenset[int]] | None"
    ) -> None:
        """Record ``mask``'s static pruning strength: (state, label) classes ruled out."""
        num_labels = len(self._fg.labels_seq)
        pruned = sum(num_labels - len(allowed) for allowed in (mask or {}).values())
        profile.count("guide_pruned_partitions", pruned)

    # -- the routed entry points ------------------------------------------------

    def rpq(
        self,
        pattern: "str | PathRegex | LazyDfa",
        start: "int | None" = None,
        *,
        strategy: str = "auto",
        profile: "QueryProfile | None" = None,
    ) -> set[int]:
        """All nodes a matching path reaches, via the cheapest safe strategy.

        Answers equal :func:`repro.automata.product.rpq_nodes` on the
        same snapshot (the property suite asserts it).  ``strategy``
        forces a specific route for ablation (``index`` and ``guide``
        raise when not applicable; ``mask`` degrades to ``kernel`` when
        no guide exists); non-root ``start`` always takes the kernel --
        the index and the guide only know root-origin paths.

        ``profile`` accumulates what the route that answered did, and
        names it in ``extras``: ``index_answered`` / ``guide_answered``
        mark the strategy that short-circuited,
        ``guide_pruned_partitions`` is the mask's static pruning strength
        on the masked-kernel route.  The golden-profile suite never
        routes through the planner, so these extras appear only in
        planner-issued profiles.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r} (one of {_STRATEGIES})")
        if profile is None:
            return self._route(pattern, start, strategy, None)
        profile.stamp("planner-rpq", _text_of(pattern))
        base = profile.results
        answers = self._route(pattern, start, strategy, profile)
        profile.results = base + len(answers)
        return answers

    def _route(
        self, pattern, start: "int | None", strategy: str, profile: "QueryProfile | None"
    ) -> set[int]:
        """:meth:`rpq`'s routing; ``profile`` gets everything but ``results``."""
        fg = self._fg
        origin = fg.root if start is None else start
        root_origin = origin == fg.root
        if not root_origin or strategy == "kernel":
            return rpq_nodes(fg, self.plan_for(pattern), start=origin, profile=profile)
        if strategy in ("auto", "index"):
            hit = self._index_lookup(pattern)
            if hit is not None:
                if profile is not None:
                    profile.index_hits += 1
                    profile.count("index_answered")
                return set(hit)
            if strategy == "index":
                raise ValueError("pattern is not index-coverable")
        dfa = self.plan_for(pattern)
        if strategy in ("auto", "guide"):
            guide = self.guide
            if guide is not None:
                states_before = dfa.num_materialized_states
                answers, seen = guide_product(guide, dfa)
                if profile is not None:
                    profile.product_pairs += len(seen)
                    profile.nodes_visited += len({g for g, _ in seen})
                    profile.dfa_states += dfa.num_materialized_states - states_before
                    profile.count("guide_answered")
                return set(answers)
            if strategy == "guide":
                raise ValueError("no DataGuide available (over budget)")
        mask = self.mask_for(pattern, dfa)
        if profile is not None:
            self._note_mask(profile, mask)
        return rpq_nodes(fg, dfa, start=origin, guide_mask=mask, profile=profile)

    def _index_lookup(self, pattern) -> "frozenset[int] | None":
        """The path-index answer for a covered fixed path, else ``None``."""
        from ..unql.optimizer import fixed_path_of

        regex = self._regex_of(pattern)
        if regex is None:
            return None
        fixed = fixed_path_of(regex)
        if fixed is None or not self._indexes.path.covers(fixed):
            return None
        return self._indexes.path.lookup(fixed)

    def witnesses(
        self,
        pattern: "str | PathRegex | LazyDfa",
        start: "int | None" = None,
        *,
        profile: "QueryProfile | None" = None,
    ) -> "dict[int, tuple[Edge, ...]]":
        """Shortest witness paths, via the guide-masked kernel.

        Witnesses need real edges, so the guide cannot answer directly;
        the mask still skips every partition it proves dead.  Results
        (including tie-breaking) are identical to the unmasked search.
        ``profile`` gets the walk's counts and the mask strength in
        ``extras``.
        """
        fg = self._fg
        origin = fg.root if start is None else start
        dfa = self.plan_for(pattern)
        mask = self.mask_for(pattern, dfa) if origin == fg.root else None
        if profile is not None:
            profile.stamp("planner-rpq-witnesses", _text_of(pattern))
            self._note_mask(profile, mask)
        return rpq_witnesses(fg, dfa, start=origin, guide_mask=mask, profile=profile)

    # -- browsing delegation ----------------------------------------------------

    def find_value(self, value: "str | int | float | bool"):
        """Section-1.3 "where is it", answered from the value index."""
        from ..browse.search import find_value

        return find_value(self._fg, value, self._indexes)

    def where_is(self, value: "str | int | float | bool") -> list[str]:
        """Dotted path strings for :meth:`find_value`."""
        return [str(f) for f in self.find_value(value)]

    def describe(self) -> dict[str, object]:
        """A JSON-ready summary (the ``stats --json`` planner section)."""
        out: dict[str, object] = {
            "snapshot_id": self._fg.snapshot_id,
            "guide_available": self.guide is not None,
            "plan_cache": self._plan_cache.stats(),
        }
        if self._guide is not None:
            out["guide_states"] = self._guide.num_states
            out["guide_transitions"] = self._guide.num_transitions
        out["statistics"] = self.statistics.as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryPlanner snapshot={self._fg.snapshot_id} "
            f"nodes={self._fg.num_nodes} guide="
            f"{'failed' if self._guide_failed else 'lazy' if self._guide is None else self._guide.num_states}>"
        )


def planner_for(
    graph: "Graph | FrozenGraph", *, plan_cache: "PlanCache | None" = None
) -> QueryPlanner:
    """The snapshot-cached planner of ``graph`` (freezing if needed).

    One planner per :class:`FrozenGraph` is memoized in the snapshot's
    extension slot, so the guide, path index and statistics amortize
    across every query against that snapshot.  ``plan_cache`` applies
    only to the call that creates the planner; later calls reuse it.
    """
    fg = freeze(graph)
    planner = fg._ext.get("planner")
    if not isinstance(planner, QueryPlanner):
        planner = QueryPlanner(fg, plan_cache=plan_cache)
        fg._ext["planner"] = planner
    return planner
