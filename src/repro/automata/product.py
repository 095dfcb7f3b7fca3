"""Regular path query (RPQ) evaluation: graph x automaton product.

This is the "principled strategy" behind general path expressions: run the
path regex's automaton in lockstep with a forward traversal of the graph.
The product has at most ``|nodes| x |dfa states|`` configurations, so
evaluation is polynomial even on cyclic data where naive path enumeration
diverges -- exactly why the paper wants regular expressions rather than
explicit path search.  :func:`naive_rpq` implements that naive enumeration
as the baseline for experiment E2.

**One stepper.**  The walk is written once, as :class:`RpqStepper`: a
resumable, level-synchronous traversal of the product that a server can
stop between supersteps (deadline, budget, cancellation); its levels are
those of a FIFO BFS.

**Two layouts.**  It has two edge-scanning bodies because there are two
graph layouts.  Over anything that serves ``edges_from`` (a plain
:class:`~repro.core.graph.Graph`, an :class:`~repro.storage.external.
ExternalGraph`, an OEM database's children) it expands ``(node, dfa state)`` configs one by one in
FIFO order, scanning every out-edge -- the reference traversal the golden
profiles pin, and the one witness walks run on either layout, because
their tie-breaks are FIFO discovery order.  Over a
:class:`~repro.core.frozen.FrozenGraph` it is *label-pruned* and *grouped
by DFA state*: a walk's frontier and explored set are ``{state: nodes}``,
so what depends only on the state -- which exact labels can advance it
(:meth:`LazyDfa.live_exact_labels`), its transition row, the sets its
successors land in -- is fetched once per state per superstep, and the
nodes' matching per-label partitions are then scanned with int work only
(every partition, whenever a wildcard/glob/negation guard makes the live
alphabet unbounded).  Skipped edges are exactly those a full scan would
step into the dead state, and a transition is resolved only when a
frontier node carries its label, so results -- and, via
:meth:`LazyDfa.ensure_dead_state`, the profiled ``dfa_states`` counts --
are identical on both layouts.  The order *within* a level differs, so a
plan first walked on one layout may number its states differently from a
plan first walked on the other; how many it builds cannot differ.

**Co-reachable pruning.**  A repeating wildcard (``_*."Bogart"``)
defeats label pruning.  When every accepted path ends on an exact label
(:meth:`LazyDfa.final_labels`), such a walk expands only the nodes with
a path to an edge carrying one (:func:`coreachable`, found by the first
superstep from the carried probe index).  Both bodies record every
config they discover but queue it only if its node is in that region
(an origin is always queued): an accepted path runs inside the region
up to its last edge, so results are unchanged, and both layouts still
agree on ``seen``, ``supersteps`` and the profile counts.

**Drivers.**  Every other entry point runs the stepper to completion and
reads a different part of its state: :func:`product_bfs` (matches plus
every explored config), :func:`rpq_nodes` (which, handed a ``profile``,
counts those configs *after* the walk), :func:`rpq_nodes_many` (many origins in one
stepper: plan, transition cache and live-label cache are paid once per
pattern, not once per source; Lorel walks each path operand for all its
environments through it) and :func:`rpq_witnesses` (the parents map,
recorded under insertion-ordered scans).

The one other runtime builds on :func:`ordered_edge_indices` (label-pruned,
insertion-ordered edge scans): :mod:`repro.distributed.decompose` schedules
configurations per site rather than per level and loops over it itself,
with the same :class:`LazyDfa` every other driver walks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.frozen import FrozenGraph
from ..core.graph import Edge, Graph, GraphError
from ..obs import QueryProfile
from ..resilience import (
    BudgetExhausted,
    Completeness,
    DeadlineExceeded,
    FailureRecord,
    QueryCancelled,
)
from .dfa import LazyDfa
from .nfa import Nfa, build_nfa
from .plan_cache import PLAN_METRICS
from .regex import PathRegex, parse_path_regex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.labels import Label
    from .plan_cache import PlanCache

__all__ = [
    "compile_rpq",
    "product_bfs",
    "ordered_edge_indices",
    "rpq_nodes",
    "rpq_nodes_many",
    "RpqStepper",
    "rpq_witnesses",
    "naive_rpq",
]

_COREACH_WALKS = PLAN_METRICS.counter("coreach_walks")
_COREACH_NODES = PLAN_METRICS.counter("coreach_nodes")


def compile_rpq(
    pattern: "str | PathRegex | Nfa | LazyDfa",
    *,
    plan_cache: "PlanCache | None" = None,
) -> LazyDfa:
    """Compile any pattern form down to a runnable lazy DFA.

    With a ``plan_cache``, string patterns are interned: repeated queries
    reuse one plan (and everything it has already materialized) instead
    of re-parsing and re-determinizing.  Non-string forms bypass the
    cache -- they carry no stable text to key on.
    """
    if isinstance(pattern, LazyDfa):
        return pattern
    if isinstance(pattern, Nfa):
        return LazyDfa(pattern)
    if isinstance(pattern, str):
        if plan_cache is not None:
            return plan_cache.get(pattern)
        pattern = parse_path_regex(pattern)
    return LazyDfa(build_nfa(pattern))


def _resolve_plan(
    pattern: "str | PathRegex | Nfa | LazyDfa",
    plan_cache: "PlanCache | None",
) -> tuple[LazyDfa, int]:
    """The plan plus the ``dfa_states`` accounting baseline.

    A pre-compiled plan (passed directly, or served from the cache) only
    charges the current query for states it *newly* materializes; a fresh
    compile charges all of them, including the start state.
    """
    if plan_cache is not None and isinstance(pattern, str):
        dfa, was_hit = plan_cache.lookup(pattern)
        return dfa, (dfa.num_materialized_states if was_hit else 0)
    dfa = compile_rpq(pattern)
    states_before = dfa.num_materialized_states if isinstance(pattern, LazyDfa) else 0
    return dfa, states_before


def rpq_nodes(
    graph: "Graph | FrozenGraph",
    pattern: "str | PathRegex | Nfa | LazyDfa",
    start: int | None = None,
    *,
    plan_cache: "PlanCache | None" = None,
    guide_mask: "dict[int, frozenset[int]] | None" = None,
    profile: "QueryProfile | None" = None,
) -> set[int]:
    """All nodes reachable from ``start`` (default: root) by a matching path.

    BFS over the product space ``(graph node, dfa state)``; each
    configuration is visited at most once, so the query terminates on
    cyclic graphs and runs in ``O(edges x dfa states)``.  Pass a frozen
    graph for the label-pruned kernel, and a plan cache to amortize
    compilation across repeated string patterns -- both return the same
    node set as the plain path.

    ``guide_mask`` is the planner's static pruning component (DFA state
    -> label ids provably able to advance it on root-origin paths of
    *this* snapshot).  It is only sound for traversals starting at the
    snapshot's root and only applies to the frozen kernel; the planner is
    the intended caller (:class:`repro.planner.QueryPlanner` checks both
    conditions), and a mask passed alongside a plain graph is ignored.

    ``profile`` is an accumulator the walk adds its exact counts to,
    derived from the explored configs once it has finished: distinct
    nodes entered, their out-degrees summed, configurations explored,
    and DFA states materialized by this evaluation (a pre-compiled
    :class:`LazyDfa` -- passed directly or served as a plan-cache hit --
    is only charged the states it *newly* builds; a fresh compile all of
    them, start state included).  The counts are identical whichever
    graph layout or cache configuration serves the query.
    """
    dfa, states_before = _resolve_plan(pattern, plan_cache)
    origin = graph.root if start is None else start
    stepper = RpqStepper._over(graph, dfa, [origin], guide_mask)
    results = stepper.run()
    if profile is not None:
        profile.stamp("rpq", _text_of(pattern))
        _add_product_counts(profile, graph, stepper.seen, states_before, dfa, len(results))
    return results


def product_bfs(
    graph: "Graph | FrozenGraph",
    dfa: LazyDfa,
    origin: int,
    guide_mask: "dict[int, frozenset[int]] | None" = None,
) -> tuple[set[int], set[tuple[int, int]]]:
    """The stepper run to completion: matched nodes plus every explored config.

    ``seen`` is what a profile's counts are derived from *after* a
    traversal (every seen config is expanded at most once: exactly once
    unless the walk is pruned to a co-reachable region), so the hot loop
    itself carries no instrumentation.
    """
    stepper = RpqStepper._over(graph, dfa, [origin], guide_mask)
    stepper.run()
    return stepper.results, stepper.seen


# -- label pruning over the CSR layout -------------------------------------------


def _live_label_ids(
    fg: FrozenGraph,
    dfa: LazyDfa,
    state: int,
    cache: dict,
    mask: "dict[int, frozenset[int]] | None" = None,
) -> "tuple[int, ...] | None":
    """``state``'s live alphabet as interned label ids, or ``None``.

    ``None`` means the live set is not exactly known (some guard is a
    wildcard/glob/type/negation) and the caller must scan every edge.
    Labels the automaton can advance on but the graph never uses are
    dropped -- they cannot label any edge.  Cached per state because the
    answer only depends on the (immutable) NFA subset.

    ``mask`` is the planner's guide-derived pruning component: per DFA
    state, the label ids that can advance it *somewhere reachable from
    the snapshot's root* (:meth:`repro.planner.QueryPlanner`).  It may
    shrink an exact set further, and it turns an unbounded live set
    (wildcard/negation guards) into a finite one -- but bounding is only
    adopted when the mask rules out at least three quarters of the
    vocabulary: per-partition probing costs per *label*, a full scan per
    *edge*, so a barely-selective mask (``(!a)*`` allows almost every
    label) would trade one contiguous scan for hundreds of probes.
    Every label the mask excludes provably steps the automaton into the
    dead state on any root-origin traversal, so masked answers are
    identical to the unmasked scan -- the mask only skips the proving
    work.
    """
    if state in cache:
        return cache[state]
    live = dfa.live_exact_labels(state)
    if live is None:
        ids = None
    else:
        label_index = fg.label_index
        ids = tuple(sorted(label_index[lab] for lab in live if lab in label_index))
    if mask is not None:
        allowed = mask.get(state)
        if allowed is not None:
            if ids is None:
                if len(allowed) * 4 <= len(fg.labels_seq):
                    ids = tuple(sorted(allowed))
            else:
                ids = tuple(lid for lid in ids if lid in allowed)
    cache[state] = ids
    return ids


def ordered_edge_indices(
    fg: FrozenGraph,
    dfa: LazyDfa,
    state: int,
    pos: int,
    live_cache: dict,
    guide_mask: "dict[int, frozenset[int]] | None" = None,
):
    """The edge indices of the node at ``pos`` worth scanning from ``state``.

    Pruned to the state's live labels (the partition sizes say how many
    edges that keeps), but always yielded in *edge insertion order* --
    the order a plain-graph scan uses -- so order-sensitive consumers
    (witness tie-breaking, the distributed BSP message schedule) behave
    identically on both layouts: a partial keep filters the node's
    ``offsets`` slice by label id.  Skipping any edge interns the dead
    state, keeping profiled state counts aligned with the full scan that
    would have stepped into it.
    """
    offsets = fg.offsets
    begin, end = offsets[pos], offsets[pos + 1]
    if begin == end:
        return ()
    live = _live_label_ids(fg, dfa, state, live_cache, guide_mask)
    if live is None:
        return range(begin, end)
    part = fg.partitions[pos]
    kept = sum(len(part[lid]) for lid in live if lid in part)
    if kept == end - begin:
        return range(begin, end)
    dfa.ensure_dead_state()
    if not kept:
        return ()
    label_ids = fg.label_ids
    return [i for i in range(begin, end) if label_ids[i] in live]


# -- co-reachability: the region a wildcard walk expands --------------------------


def coreach_labels(graph, dfa: LazyDfa) -> "frozenset[Label] | None":
    """The final labels whose co-reachable region a walk of ``dfa`` over
    ``graph`` expands, or ``None``: unless a wildcard repeats, label
    pruning suffices, and an ``ExternalGraph`` has no in-edges."""
    if not isinstance(graph, (Graph, FrozenGraph)) or not dfa.wildcard_repeats:
        return None
    return dfa.final_labels()


def coreachable(graph: "Graph | FrozenGraph", labels: "frozenset[Label]") -> "tuple[set[int], int]":
    """The nodes with a path to an edge labeled in ``labels`` (its source
    included), and the in-edges read to find them: from the snapshot's
    carried probe index, or a reverse map built in one pass over a
    ``Graph``'s edges."""
    from ..index.probes import probes_for, reverse_closure

    if isinstance(graph, FrozenGraph):
        label_index = graph.label_index
        region, reads = probes_for(graph).reaching(
            label_index[label] for label in labels if label in label_index
        )
    else:
        into: dict[int, list[int]] = {}
        region = set()
        for edge in graph.edges():
            into.setdefault(edge.dst, []).append(edge.src)
            if edge.label in labels:
                region.add(edge.src)
        reads = reverse_closure(region, lambda node: into.get(node, ()))
    _COREACH_WALKS.inc()
    _COREACH_NODES.inc(len(region))
    return region, reads


# -- the other drivers: profile accounting, many-source ---------------------------


def _text_of(pattern: "str | PathRegex | Nfa | LazyDfa") -> str:
    """What a profile records as ``query`` for ``pattern``."""
    return pattern if isinstance(pattern, str) else "<compiled>"


def _add_product_counts(
    profile: QueryProfile,
    graph: "Graph | FrozenGraph",
    seen: set[tuple[int, int]],
    states_before: int,
    dfa: LazyDfa,
    answers: int,
) -> None:
    """Add one finished traversal to ``profile``, from its explored configs."""
    visited = set(map(itemgetter(0), seen))
    profile.product_pairs += len(seen)
    profile.nodes_visited += len(visited)
    profile.edges_expanded += graph.total_out_degree(visited)
    profile.dfa_states += dfa.num_materialized_states - states_before
    profile.results += answers


def rpq_nodes_many(
    graph: "Graph | FrozenGraph",
    pattern: "str | PathRegex | Nfa | LazyDfa",
    sources: Iterable[int],
    *,
    plan_cache: "PlanCache | None" = None,
) -> dict[int, set[int]]:
    """One stepper answering the pattern from many sources.

    Returns ``{source: matched nodes}``, equal to running
    :func:`rpq_nodes` once per source.  Each source's walk keeps its own
    explored set, so sources whose frontiers overlap still get separate
    answers while sharing a single plan, transition cache, and live-label
    cache -- the per-query setup cost is paid once per *pattern* instead
    of once per *source*, which is what makes per-binding path conditions
    cheap.
    """
    dfa = compile_rpq(pattern, plan_cache=plan_cache)
    order = list(dict.fromkeys(sources))
    if not order:
        return {}
    stepper = RpqStepper._over(graph, dfa, order)
    stepper.run()
    return {origin: results for origin, results, _, _ in stepper._walks}


# -- the one traversal -------------------------------------------------------------


class RpqStepper:
    """A resumable, level-synchronous RPQ product traversal.

    The product BFS over ``(graph node, dfa state)`` configurations, cut
    into *supersteps*: one :meth:`step` call expands the whole current
    frontier (every config at the same BFS depth) and then returns
    control to the caller.  Between steps a server can checkpoint a
    deadline or operation budget, honor a cooperative cancellation, or
    interleave other queries -- without any instrumentation inside the
    edge loop itself.  Levels are those of a FIFO BFS; within a level the
    per-config body keeps FIFO order (witness tie-breaks depend on it),
    the CSR body goes state by state (only DFA state *numbers* can tell).

    Every other entry point of this module is this class driven to
    completion, so :attr:`results` equals :func:`rpq_nodes` and
    :attr:`seen` equals :func:`product_bfs`'s on both layouts (asserted
    directly by the kernel property tests).  Interrupted, :attr:`results`
    is a sound lower bound: RPQ answers are monotone in the explored
    region, so stopping early can only *hide* matches, never invent them
    -- which is what makes the :class:`~repro.resilience.Completeness`
    contract attachable to a half-run query.

    ``ops`` counts edges scanned *on the serving layout*: the frozen
    kernel's label pruning skips edges a plain scan would touch, so a
    budget is a bound on actual work done, not on the logical graph.  A
    walk pruned to a co-reachable region adds, in its first superstep,
    the in-edges read to find the region -- once per origin, so a
    many-origin stepper costs what its walks would cost one by one.
    """

    __slots__ = (
        "graph",
        "dfa",
        "origin",
        "results",
        "supersteps",
        "ops",
        "_walks",
        "_frontier",
        "_by_state",
        "_parents",
        "_guide_mask",
        "_trans",
        "_live_cache",
        "_dead_interned",
        "_final",
        "_coreach",
    )

    def __init__(
        self,
        graph: "Graph | FrozenGraph",
        pattern: "str | PathRegex | Nfa | LazyDfa",
        start: int | None = None,
        *,
        plan_cache: "PlanCache | None" = None,
    ) -> None:
        dfa = compile_rpq(pattern, plan_cache=plan_cache)
        self._begin(graph, dfa, [graph.root if start is None else start])

    @classmethod
    def _over(cls, graph, dfa, origins, guide_mask=None, parents=False) -> "RpqStepper":
        """The drivers' constructor: :meth:`_begin` without a compile."""
        stepper = cls.__new__(cls)
        stepper._begin(graph, dfa, origins, guide_mask, parents)
        return stepper

    def _begin(
        self,
        graph: "Graph | FrozenGraph",
        dfa: LazyDfa,
        origins: "list[int]",
        guide_mask: "dict[int, frozenset[int]] | None" = None,
        parents: bool = False,
    ) -> None:
        """Start one walk per origin (distinct, non-empty) over shared caches.

        ``guide_mask`` follows the :func:`rpq_nodes` contract; ``parents``
        (single origin) records each config's discovering ``(config,
        edge)`` and runs the FIFO per-config body on either layout, so
        discovery order is layout-independent.  Whether the walk is
        pruned to a co-reachable region is decided here
        (:func:`coreach_labels`); the region itself is found by the first
        :meth:`step`.
        """
        # other read-API graphs (``ExternalGraph``) have no ``has_node``;
        # their ``edges_from`` reports an unknown origin at the first step
        if isinstance(graph, (Graph, FrozenGraph)):
            for origin in origins:
                if not graph.has_node(origin):
                    raise GraphError(f"unknown node {origin}")
        self.graph = graph
        self.dfa = dfa
        start = dfa.start
        accept_start = dfa.is_accepting(start)
        self._by_state = by_state = isinstance(graph, FrozenGraph) and not parents
        # one group per origin: (origin, matched nodes, explored configs,
        # configs awaiting expansion) -- the last two ``{state: nodes}``
        # for the CSR body, ``(node, state)`` pairs for the FIFO one.  A
        # group carries its walk's own sets, so the edge loops are
        # single-source whatever the origin count; supersteps replace the
        # frontier list, never a group's sets, so the first frontier
        # stays the index of every answer.
        self._walks = self._frontier = [
            (
                origin,
                {origin} if accept_start else set(),
                {start: {origin}} if by_state else {(origin, start)},
                {start: [origin]} if by_state else [(origin, start)],
            )
            for origin in origins
        ]
        self.origin, self.results, _, _ = self._walks[0]
        self._parents: "dict | None" = {(self.origin, start): None} if parents else None
        self._guide_mask = guide_mask
        self.supersteps = 0
        self.ops = 0
        self._trans: dict[int, dict[int, int]] = {}
        self._live_cache: dict = {}
        self._dead_interned = False
        self._final = coreach_labels(graph, dfa)
        self._coreach: "set[int] | None" = None

    @property
    def seen(self) -> set[tuple[int, int]]:
        """Every ``(node, state)`` config the (first) walk has explored."""
        seen = self._walks[0][2]
        if self._by_state:
            return {(node, state) for state, nodes in seen.items() for node in nodes}
        return seen

    @property
    def done(self) -> bool:
        return not self._frontier

    @property
    def frontier_size(self) -> int:
        """Configs awaiting expansion -- the work dropped if we stop now."""
        if self._by_state:
            return sum(len(nodes) for group in self._frontier for nodes in group[3].values())
        return sum(len(group[3]) for group in self._frontier)

    def step(self) -> bool:
        """Expand one superstep; ``True`` while work remains."""
        if not self._frontier:
            return False
        if self._final is not None:
            # the first superstep finds the region; every walk is charged
            # the in-edges read, as if it had found the region alone
            self._coreach, reads = coreachable(self.graph, self._final)
            self._final = None
            self.ops += reads * len(self._frontier)
        if self._by_state:
            self._expand_csr()
        else:
            self._expand_edges()
        self.supersteps += 1
        return bool(self._frontier)

    def run(self, control=None) -> set[int]:
        """Drive to completion, checkpointing ``control`` between supersteps.

        ``control`` needs one method, ``checkpoint(ops: int)``, called
        with the superstep's scanned-edge count and expected to raise a
        typed :class:`~repro.resilience.ResilienceError` (deadline,
        budget, cancellation) to interrupt.  The exception propagates
        with the stepper's state intact, so the caller can still read the
        lower-bound :attr:`results` and :attr:`frontier_size`
        (:func:`interrupted_completeness` words the report).
        """
        if control is not None:
            control.checkpoint(0)
        while self._frontier:
            before = self.ops
            self.step()
            if control is not None:
                control.checkpoint(self.ops - before)
        return self.results

    def _expand_edges(self) -> None:
        """One superstep, config by config in FIFO order: any graph, through
        ``edges_from`` -- or, a witness walk over the CSR layout, through
        the pruned insertion-ordered scans of :func:`ordered_edge_indices`."""
        graph, dfa, parents, coreach = self.graph, self.dfa, self._parents, self._coreach
        pruned = isinstance(graph, FrozenGraph)
        ops = 0
        nxt_frontier = []
        for origin, results, seen, configs in self._frontier:
            grown: list[tuple[int, int]] = []
            for config in configs:
                node, state = config
                edges = self._ordered_edges(node, state) if pruned else graph.edges_from(node)
                for edge in edges:
                    ops += 1
                    nxt_state = dfa.step(state, edge.label)
                    if dfa.is_dead(nxt_state):
                        continue
                    child = (edge.dst, nxt_state)
                    if child in seen:
                        continue
                    seen.add(child)
                    if dfa.is_accepting(nxt_state):
                        results.add(edge.dst)
                    if parents is not None:
                        parents[child] = (config, edge)
                    if coreach is None or edge.dst in coreach:
                        grown.append(child)
            if grown:
                nxt_frontier.append((origin, results, seen, grown))
        self.ops += ops
        self._frontier = nxt_frontier

    def _ordered_edges(self, node: int, state: int) -> "Sequence[Edge]":
        """``node``'s CSR edges worth stepping from ``state``, insertion order."""
        fg: FrozenGraph = self.graph  # type: ignore[assignment]
        pos = node if fg.index is None else fg.index[node]
        span = ordered_edge_indices(fg, self.dfa, state, pos, self._live_cache, self._guide_mask)
        edges = fg.edges_from(node)
        if len(span) == len(edges):
            return edges
        begin = fg.offsets[pos]
        return [edges[i - begin] for i in span]

    def _expand_csr(self) -> None:
        """One label-pruned superstep over the CSR layout, state by state.

        Per state and superstep: its live label ids, its row of the
        transition table (label id -> next state, ``-1`` dead), and per
        label the target state's explored set and frontier list.  Per
        edge: a target read straight from the bucket, an int-set probe,
        an add, an append.  A row entry is resolved only once a frontier
        node carries the label and the dead state interned only once a
        node has an edge outside the live set -- exactly the DFA states
        a full scan builds.
        """
        fg: FrozenGraph = self.graph  # type: ignore[assignment]
        partitions, index, coreach = fg.partitions, fg.index, self._coreach
        is_accepting = self.dfa.is_accepting
        rows = self._trans
        ops = 0
        nxt_frontier = []
        for origin, results, seen, frontier in self._frontier:
            grown: dict[int, list[int]] = {}
            for state, nodes in frontier.items():
                live = _live_label_ids(fg, self.dfa, state, self._live_cache, self._guide_mask)
                if live == () and self._dead_interned:
                    continue  # no label steps on from here: nothing to scan
                row = rows.setdefault(state, {})
                if index is None:
                    parts = [partitions[node] for node in nodes]
                else:
                    parts = [partitions[index[node]] for node in nodes]
                if live is None:
                    current = reached = out = None
                    for part in parts:
                        for lid, bucket in part.items():
                            ops += len(bucket)
                            nxt = row.get(lid)
                            if nxt is None:
                                nxt = self._transition(row, state, lid)
                            if nxt < 0:
                                continue
                            if nxt != current:
                                current = nxt
                                reached = seen.setdefault(nxt, set())
                                out = grown.setdefault(nxt, [])
                            for dst in bucket:
                                if dst not in reached:
                                    reached.add(dst)
                                    out.append(dst)
                    continue
                hits = 0
                for lid in live:
                    reached = None
                    for part in parts:
                        bucket = part.get(lid)
                        if bucket is None:
                            continue
                        hits += 1
                        ops += len(bucket)
                        if reached is None:
                            nxt = row.get(lid)
                            if nxt is None:
                                nxt = self._transition(row, state, lid)
                            if nxt < 0:
                                continue
                            reached = seen.setdefault(nxt, set())
                            out = grown.setdefault(nxt, [])
                        for dst in bucket:
                            if dst not in reached:
                                reached.add(dst)
                                out.append(dst)
                if not self._dead_interned and hits != sum(map(len, parts)):
                    # some node has a label outside the live set: a full
                    # scan would step that edge into the dead state;
                    # intern it so materialized-state counts agree
                    self.dfa.ensure_dead_state()
                    self._dead_interned = True
            todo = {}
            for state, nodes in grown.items():
                if nodes and is_accepting(state):
                    results.update(nodes)
                if coreach is not None:
                    nodes = [node for node in nodes if node in coreach]
                if nodes:
                    todo[state] = nodes
            if todo:
                nxt_frontier.append((origin, results, seen, todo))
        self.ops += ops
        self._frontier = nxt_frontier

    def _transition(self, row: dict, state: int, lid: int) -> int:
        """Resolve ``row[lid]``: ``state``'s successor on label id ``lid``."""
        nxt = self.dfa.step(state, self.graph.labels_seq[lid])
        if self.dfa.is_dead(nxt):
            nxt = -1
        row[lid] = nxt
        return nxt


#: Interrupt exception -> the ``kind`` recorded in the failure report.
_INTERRUPT_KINDS = {
    DeadlineExceeded: "deadline",
    QueryCancelled: "cancelled",
    BudgetExhausted: "budget",
}


def interrupted_completeness(exc: Exception, key: str, lost: int) -> Completeness:
    """The completeness report of a traversal stopped at a checkpoint.

    ``lost`` is the frontier size at the stop -- the configurations that
    were queued but never expanded (the honest work-dropped count the
    ``describe()`` rendering surfaces).
    """
    kind = _INTERRUPT_KINDS.get(type(exc), "interrupt")
    return Completeness(
        complete=False,
        failures=(
            FailureRecord(kind=kind, key=key, attempts=1, error=str(exc), lost=lost),
        ),
    )


# -- witnesses -------------------------------------------------------------------


def rpq_witnesses(
    graph: "Graph | FrozenGraph",
    pattern: "str | PathRegex | Nfa | LazyDfa",
    start: int | None = None,
    *,
    plan_cache: "PlanCache | None" = None,
    guide_mask: "dict[int, frozenset[int]] | None" = None,
    profile: "QueryProfile | None" = None,
) -> dict[int, tuple[Edge, ...]]:
    """A shortest witness path for every node matched by the pattern.

    Returns ``{node: (edge, edge, ...)}`` where the edge sequence spells a
    shortest label path from the start node that the regex accepts.  Used
    by Lorel path variables and by the browsing API to *show* the user
    where in the database something was found.  Witness choice is
    deterministic and layout-independent: the frozen kernel scans pruned
    edges in insertion order, so ties break exactly as on a plain graph.

    ``guide_mask`` follows the :func:`rpq_nodes` contract: sound only for
    root-origin traversals of the frozen snapshot it was computed for.
    ``profile`` does too: the witness walk is the stepper
    :func:`rpq_nodes` runs, so the two report identical counts for the
    same query (a cross-check the tests rely on).

    The parents map is keyed in discovery order, which on both layouts is
    that of a plain FIFO BFS, so the first accepting config listed for a
    node is the one whose path is shortest (ties broken by edge insertion
    order).
    """
    dfa, states_before = _resolve_plan(pattern, plan_cache)
    origin = graph.root if start is None else start
    stepper = RpqStepper._over(graph, dfa, [origin], guide_mask, parents=True)
    stepper.run()
    parents = stepper._parents
    witnesses: dict[int, tuple[Edge, ...]] = {}
    for config in parents:
        node, state = config
        if node in witnesses or not dfa.is_accepting(state):
            continue
        path, cursor = [], config
        while parents[cursor] is not None:
            cursor, edge = parents[cursor]
            path.append(edge)
        witnesses[node] = tuple(reversed(path))
    if profile is not None:
        profile.stamp("rpq-witnesses", _text_of(pattern))
        _add_product_counts(
            profile, graph, stepper.seen, states_before, dfa, len(witnesses)
        )
    return witnesses


# -- the naive baseline ----------------------------------------------------------


def naive_rpq(
    graph: "Graph | FrozenGraph",
    pattern: "str | PathRegex | Nfa",
    max_length: int,
    start: int | None = None,
) -> set[int]:
    """Baseline: enumerate label paths up to ``max_length`` and test each.

    This is what a query processor without the product construction must
    do; on branchy or cyclic data the path count explodes exponentially
    (experiment E2 measures the gap).  ``max_length`` bounds the search so
    the baseline terminates on cyclic input; results agree with
    :func:`rpq_nodes` whenever every witness fits in the bound.

    The enumeration is an explicit-stack DFS carrying the NFA state set
    incrementally along the current path (one :meth:`Nfa.step` per edge
    rather than re-matching the whole label sequence at every node), so
    deep chains neither overflow the recursion limit nor pay quadratic
    re-matching -- it is still the naive *per-path* search, just fairly
    implemented.
    """
    if isinstance(pattern, Nfa):
        nfa = pattern
    else:
        if isinstance(pattern, str):
            pattern = parse_path_regex(pattern)
        nfa = build_nfa(pattern)
    origin = graph.root if start is None else start
    results: set[int] = set()
    initial = nfa.initial()
    if nfa.is_accepting(initial):
        results.add(origin)
    if max_length <= 0:
        return results
    # parallel stacks: an edge iterator per open node on the current path,
    # and the NFA state set reached by the labels spelling that path
    iter_stack = [iter(graph.edges_from(origin))]
    state_stack = [initial]
    while iter_stack:
        edge = next(iter_stack[-1], None)
        if edge is None:
            iter_stack.pop()
            state_stack.pop()
            continue
        states = nfa.step(state_stack[-1], edge.label)
        if nfa.is_accepting(states):
            results.add(edge.dst)
        if len(iter_stack) < max_length:
            iter_stack.append(iter(graph.edges_from(edge.dst)))
            state_stack.append(states)
    return results
