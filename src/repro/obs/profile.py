"""The query-profile contract: what an evaluation *did*, in exact counts.

Timing tells you a query got slower; it cannot tell you why, and it is
never reproducible enough to assert on.  A :class:`QueryProfile` is the
complement: deterministic operation counts -- product configurations
explored, DFA states materialized, index hits -- that are identical on
every run of the same query over the same data.  The golden-profile test
suite pins these numbers for a fixed query suite over the bundled
datasets, so an algorithmic regression (say, a change that doubles the
configurations the product construction explores) fails a test even when
the benchmark timings stay inside their noise band.

A profile is an **accumulator**: the caller constructs one and passes it
as ``profile=`` to the same entry point that answers the query
(``rpq_nodes``, ``evaluate_query``, ``evaluate_lorel``, ``find_value``,
``distributed_rpq``, ...), which returns what it
always returns and *adds* the run's counts to the profile.  Handing one
profile to two calls therefore sums them, which is how the UnQL and Lorel
evaluators account their sub-queries.  Identity is first-writer-wins
(:meth:`QueryProfile.stamp`): the outermost entry point names ``engine``
and ``query`` before it delegates, and a caller that only holds the text
(the AST-level entry points never see it) pre-fills ``query`` itself.
``results`` counts the answers of the call the profile was handed to --
an evaluator that runs sub-queries discards what they added to it.  The
counts are defined so they can be derived from the evaluation's own data
structures after the fact, which keeps a profiled call within a few
percent of the plain one (``benchmarks/bench_obs_overhead.py`` holds the
line).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QueryProfile"]

#: Field order of the integer counts, shared by as_dict and merge.
_COUNT_FIELDS = (
    "nodes_visited",
    "edges_expanded",
    "dfa_states",
    "product_pairs",
    "index_hits",
    "index_misses",
    "bindings_produced",
    "results",
    "bytes_serialized",
    "bytes_loaded",
    "supersteps",
    "messages",
)


@dataclass
class QueryProfile:
    """Deterministic operation counts for one query evaluation.

    The count fields (all exact, all reproducible):

    * ``nodes_visited`` -- distinct graph nodes / OEM objects the
      evaluation touched;
    * ``edges_expanded`` -- outgoing edges scanned from those nodes;
    * ``dfa_states`` -- automaton states materialized *by this run*
      (lazy determinization makes this a per-query observable);
    * ``product_pairs`` -- (node, state) configurations explored by the
      automaton product;
    * ``index_hits`` / ``index_misses`` -- physical-index lookups that
      could / could not answer from the structure;
    * ``bindings_produced`` -- variable environments the binding stage
      yielded (before and independent of construction);
    * ``results`` -- answer units produced (matched nodes, rows,
      findings);
    * ``bytes_serialized`` / ``bytes_loaded`` -- storage traffic;
    * ``supersteps`` / ``messages`` -- BSP rounds and cross-site
      messages of a distributed evaluation.

    ``complete`` carries the partial-result verdict (False when a
    degraded engine lost regions); ``extras`` holds engine-specific
    counts (e.g. per-site message totals) without schema changes.
    Lorel with pushdown reports ``index_seeded`` there: the binding
    clauses seeded from pushed where-predicates.  The golden suite's
    direct engine paths never set it, so pinned profiles are unaffected.
    """

    engine: str = ""
    query: str = ""
    nodes_visited: int = 0
    edges_expanded: int = 0
    dfa_states: int = 0
    product_pairs: int = 0
    index_hits: int = 0
    index_misses: int = 0
    bindings_produced: int = 0
    results: int = 0
    bytes_serialized: int = 0
    bytes_loaded: int = 0
    supersteps: int = 0
    messages: int = 0
    complete: bool = True
    extras: dict[str, int] = field(default_factory=dict)

    def stamp(self, engine: str, query: str = "") -> None:
        """Name the evaluation, unless an outer caller already has."""
        self.engine = self.engine or engine
        self.query = self.query or query

    def count(self, extra: str, n: int = 1) -> None:
        """Add ``n`` to the engine-specific count ``extras[extra]``."""
        self.extras[extra] = self.extras.get(extra, 0) + n

    def merge(self, other: "QueryProfile") -> "QueryProfile":
        """Fold another profile's counts into this one (sub-operations)."""
        for name in _COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.complete = self.complete and other.complete
        for key, value in other.extras.items():
            self.count(key, value)
        return self

    def as_dict(self) -> dict[str, object]:
        """A stable, JSON-ready dict -- the golden-file representation."""
        out: dict[str, object] = {"engine": self.engine, "query": self.query}
        for name in _COUNT_FIELDS:
            out[name] = getattr(self, name)
        out["complete"] = self.complete
        out["extras"] = dict(sorted(self.extras.items()))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        busy = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in _COUNT_FIELDS
            if getattr(self, name)
        )
        return f"<profile {self.engine or '?'} {busy or 'empty'}>"
