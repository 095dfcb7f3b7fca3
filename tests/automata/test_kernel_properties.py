"""Property tests for the fast-path kernel: frozen snapshots, plan
caching, and batched multi-source evaluation must be *observationally
identical* to the plain dict-of-lists paths they accelerate.

Three families, each over arbitrary small graphs and a pattern sample
that exercises every DFA guard shape (exact labels, alternation,
closures, wildcard ``#``, negation ``!a`` -- the last two force the
pruned traversal onto its full-scan fallback):

* freeze round-trip: every public RPQ entry point agrees between a
  ``Graph`` and its :meth:`~repro.core.graph.Graph.freeze` snapshot,
  including the exact profiled operation counts;
* batched-vs-looped: ``rpq_nodes_many`` equals one ``rpq_nodes`` call
  per source, on both layouts;
* plan-cache hot-vs-cold: answers are independent of whether the plan
  came from a cache hit, a cache miss, or a fresh compile;
* the stepper itself: every entry point above is a driver of
  :class:`~repro.automata.product.RpqStepper`, and the server steps it
  directly -- so its own contract (complete run, early stop and resume,
  checkpoint accounting, many origins) is pinned here on both layouts;
* the co-reachable prune: a repeated-wildcard walk expands only nodes
  that can still reach a final label, and answers exactly what
  ``naive_rpq`` does -- on both layouts and on a derived snapshot with
  gaps in its ids, whose probe index was carried across the commit;
* the two directions: forced to pull from the probe index's per-label
  edge lists or to push through label runs, a CSR walk equals the FIFO
  walk on a dense snapshot, an indexed one, and one whose index was
  carried, and builds the DFA states a full scan builds.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import product
from repro.automata.plan_cache import PlanCache
from repro.automata.product import (
    RpqStepper,
    compile_rpq,
    naive_rpq,
    product_bfs,
    rpq_nodes,
    rpq_nodes_many,
    rpq_witnesses,
)
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.labels import string, sym
from repro.index.probes import probes_for
from repro.obs import QueryProfile
from repro.obs.metrics import MetricsRegistry
from repro.resilience import BudgetExhausted

#: Every guard shape the pruned product kernel must handle: exact labels
#: (prunable), alternation/closure mixes, the non-exact guards (``#``,
#: ``_``, ``!a``) that force the full-scan fallback, and the repeated
#: wildcards ending on exact labels whose walks are pruned to the
#: co-reachable region (``d`` labels no edge: only the empty path is left).
PATTERNS = [
    "a",
    "a.b",
    "a*",
    "(a|b)*",
    "a.b*",
    "#.a",
    "_.b",
    "!a",
    "(a.b)+",
    "a.(!b)*.a",
    "_*.a",
    "(!a)*.b",
    "#.(a|b)",
    "(_*.a)?",
    "_*.d",
]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(1, 10))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from("abc")),
            draw(st.sampled_from(nodes)),
        )
    return g


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_freeze_round_trip_agreement(g, pattern):
    fg = g.freeze()
    assert rpq_nodes(fg, pattern) == rpq_nodes(g, pattern)
    assert rpq_witnesses(fg, pattern) == rpq_witnesses(g, pattern)
    assert fg.reachable() == g.reachable()


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_freeze_preserves_profiled_counts(g, pattern):
    """The pruned kernel may skip edges only when a full scan would have
    stepped them into the dead state -- so every operation count the
    profile reports must match the dict-of-lists traversal exactly."""
    dict_profile = QueryProfile()
    dict_nodes = rpq_nodes(g, pattern, profile=dict_profile)
    frozen_profile = QueryProfile()
    frozen_nodes = rpq_nodes(g.freeze(), pattern, profile=frozen_profile)
    assert frozen_nodes == dict_nodes
    assert frozen_profile.as_dict() == dict_profile.as_dict()
    dict_wprof = QueryProfile()
    dict_wit = rpq_witnesses(g, pattern, profile=dict_wprof)
    frozen_wprof = QueryProfile()
    frozen_wit = rpq_witnesses(g.freeze(), pattern, profile=frozen_wprof)
    assert frozen_wit == dict_wit
    assert frozen_wprof.as_dict() == dict_wprof.as_dict()


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_batched_equals_looped(g, pattern):
    sources = list(g.nodes())
    looped = {src: rpq_nodes(g, pattern, start=src) for src in sources}
    assert rpq_nodes_many(g, pattern, sources) == looped
    assert rpq_nodes_many(g.freeze(), pattern, sources) == looped


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_batched_dedupes_sources(g, pattern):
    src = g.root
    many = rpq_nodes_many(g, pattern, [src, src, src])
    assert many == {src: rpq_nodes(g, pattern, start=src)}


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_plan_cache_hot_equals_cold(g, pattern):
    cache = PlanCache(registry=MetricsRegistry())
    fresh = rpq_nodes(g, pattern)
    cold = rpq_nodes(g, pattern, plan_cache=cache)
    hot = rpq_nodes(g, pattern, plan_cache=cache)
    assert fresh == cold == hot
    # the cached plan serves the frozen layout too
    assert rpq_nodes(g.freeze(), pattern, plan_cache=cache) == fresh


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=60, deadline=None)
def test_prop_shared_plan_across_graphs(g, pattern):
    """One cached plan serves many graphs: the LazyDfa memo tables only
    grow, so earlier queries can never change a later answer."""
    cache = PlanCache(registry=MetricsRegistry())
    other = Graph()
    r = other.new_node()
    other.set_root(r)
    other.add_edge(r, "a", other.new_node())
    first = rpq_nodes(other, pattern, plan_cache=cache)
    assert rpq_nodes(g, pattern, plan_cache=cache) == rpq_nodes(g, pattern)
    assert rpq_nodes(other, pattern, plan_cache=cache) == first


# -- the stepper, directly ----------------------------------------------------------


def both_layouts(g):
    return (g, g.freeze())


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_stepper_run_to_completion(g, pattern):
    """Stepped to the end, the stepper *is* the BFS: same answer, same
    explored configs, and -- level structure being a property of the
    product, not of the layout -- the same superstep count everywhere."""
    dfa = compile_rpq(pattern)  # shared: state numbers are per-plan
    steppers = []
    for graph in both_layouts(g):
        stepper = RpqStepper(graph, dfa)
        while stepper.step():
            pass
        assert stepper.done and stepper.frontier_size == 0
        assert not stepper.step()  # a finished stepper stays finished
        assert stepper.results == rpq_nodes(graph, dfa)
        assert stepper.seen == product_bfs(graph, dfa, graph.root)[1]
        steppers.append(stepper)
    plain, frozen = steppers
    assert plain.seen == frozen.seen
    assert plain.supersteps == frozen.supersteps
    assert frozen.ops <= plain.ops  # pruning only ever skips edges


@given(small_graphs(), st.sampled_from(PATTERNS), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_prop_stepper_stop_and_resume(g, pattern, k):
    """Stopped after ``k`` supersteps the answer is a lower bound that
    only grows; resuming reaches the full answer."""
    for graph in both_layouts(g):
        full = rpq_nodes(graph, pattern)
        stepper = RpqStepper(graph, pattern)
        so_far = set(stepper.results)
        for _ in range(k):
            stepper.step()
            assert so_far <= stepper.results <= full
            so_far = set(stepper.results)
        assert stepper.supersteps <= k
        assert stepper.run() == full
        assert stepper.done


class RecordingControl:
    """A ``checkpoint(ops)`` sink that can interrupt at the n-th call."""

    def __init__(self, interrupt_at=None):
        self.calls = []
        self.interrupt_at = interrupt_at

    def checkpoint(self, ops):
        self.calls.append(ops)
        if len(self.calls) == self.interrupt_at:
            raise BudgetExhausted("test", self.interrupt_at, sum(self.calls))


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_stepper_checkpoints_account_for_every_op(g, pattern):
    for graph in both_layouts(g):
        control = RecordingControl()
        stepper = RpqStepper(graph, pattern)
        assert stepper.run(control) == rpq_nodes(graph, pattern)
        # one checkpoint before any work, then one per superstep
        assert control.calls[0] == 0
        assert len(control.calls) == stepper.supersteps + 1
        assert sum(control.calls) == stepper.ops


@given(small_graphs(), st.sampled_from(PATTERNS), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_prop_stepper_survives_an_interrupt(g, pattern, at):
    """An interrupt raised at a checkpoint leaves the state intact: a
    sound partial answer now, the full one after resuming."""
    for graph in both_layouts(g):
        full = rpq_nodes(graph, pattern)
        stepper = RpqStepper(graph, pattern)
        try:
            stepper.run(RecordingControl(interrupt_at=at))
        except BudgetExhausted:
            assert stepper.supersteps == at - 1
            assert stepper.results <= full
            assert stepper.done == (stepper.frontier_size == 0)
        assert stepper.run() == full


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_stepper_many_origins_equal_looped(g, pattern):
    """One stepper over many origins is that many independent walks
    sharing a plan: per-origin answers, total work and depth all agree
    with one stepper per origin."""
    origins = list(g.nodes())
    for graph in both_layouts(g):
        dfa = compile_rpq(pattern)
        many = RpqStepper._over(graph, dfa, origins)
        many.run()
        singles = [RpqStepper(graph, dfa, origin) for origin in origins]
        for single in singles:
            single.run()
        assert rpq_nodes_many(graph, dfa, origins) == {
            single.origin: single.results for single in singles
        }
        # the public face of a many-origin stepper is its first walk
        assert (many.origin, many.results, many.seen) == (
            singles[0].origin,
            singles[0].results,
            singles[0].seen,
        )
        assert many.ops == sum(single.ops for single in singles)
        assert many.supersteps == max(single.supersteps for single in singles)


# -- the state-grouped CSR walk -----------------------------------------------------
#
# The CSR body keeps a walk's configs as ``{dfa state: nodes}`` and visits
# them state by state, not in FIFO order.  What must not depend on that:
# the answer, the explored configs, the level structure, how many DFA
# states get built, and -- witness walks stay FIFO -- every tie-break.


def run_to_end(graph, dfa):
    stepper = RpqStepper._over(graph, dfa, [graph.root])
    stepper.run()
    return stepper


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_grouped_walk_equals_the_edges_from_walk(g, pattern):
    dfa = compile_rpq(pattern)  # one plan: the CSR walk numbers its states first
    frozen, plain = run_to_end(g.freeze(), dfa), run_to_end(g, dfa)
    assert frozen.results == plain.results
    assert frozen.seen == plain.seen
    assert frozen.supersteps == plain.supersteps
    # a transition is resolved only when a frontier node carries its
    # label, the dead state only when an edge is skipped: each layout, on
    # a plan of its own, builds exactly the states the full scan builds
    csr_plan, scan_plan = compile_rpq(pattern), compile_rpq(pattern)
    run_to_end(g.freeze(), csr_plan)
    run_to_end(g, scan_plan)
    assert csr_plan.num_materialized_states == scan_plan.num_materialized_states


def test_a_non_repeating_wildcard_walks_no_region():
    """``(!l)`` has no finite live alphabet, so its state scans every
    edge; its wildcard does not repeat, so no co-reachable region is
    charged either: 3 edges, not the 4 a region would add."""
    g = Graph()
    root, mid, hit, miss = (g.new_node() for _ in range(4))
    g.set_root(root)
    g.add_edge(root, "a", mid)
    g.add_edge(root, "l", miss)  # steps ``!l`` into the dead state
    g.add_edge(mid, "b", hit)
    walk = run_to_end(g.freeze(), compile_rpq("(!l).b"))
    assert walk.results == {hit}
    assert walk.ops == 3


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_interrupt_at_every_checkpoint_then_resume(g, pattern):
    """Whichever checkpoint interrupts, the frontier it leaves behind is
    the level a FIFO walk would be at, and resuming loses nothing."""
    dfa = compile_rpq(pattern)
    full = run_to_end(g, dfa)
    for at in range(1, full.supersteps + 2):
        waiting = []
        for graph in both_layouts(g):
            stepper = RpqStepper(graph, dfa)
            first = RecordingControl(interrupt_at=at)
            with pytest.raises(BudgetExhausted):
                stepper.run(first)
            assert stepper.supersteps == at - 1
            assert stepper.results <= full.results
            assert stepper.done == (stepper.frontier_size == 0)
            waiting.append(stepper.frontier_size)
            rest = RecordingControl()
            assert stepper.run(rest) == full.results
            assert stepper.seen == full.seen
            assert sum(first.calls) + sum(rest.calls) == stepper.ops
        # configs awaiting expansion, summed over states: the same level
        assert waiting[0] == waiting[1]


#: alternations whose branches reach the same node through different DFA
#: states: the witness must be the FIFO-first one on both layouts
SPLIT_PATTERNS = ["(a.c)|(b.c)", "(a.a)|(b.a)", "(a.(b|c)*)|(b.(b|c)*)", "(a|b).(a|b)"]


@given(small_graphs(), st.sampled_from(SPLIT_PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_witness_ties_break_alike_on_both_layouts(g, pattern):
    assert rpq_witnesses(g.freeze(), pattern) == rpq_witnesses(g, pattern)


def test_witness_through_two_dfa_states_is_the_first_inserted_path():
    for first, second in ("ab", "ba"):
        g = Graph()
        root, left, right, target = (g.new_node() for _ in range(4))
        g.set_root(root)
        g.add_edge(root, first, left)
        g.add_edge(root, second, right)
        g.add_edge(right, "c", target)
        g.add_edge(left, "c", target)
        dfa = compile_rpq("(a.c)|(b.c)")
        # the two length-2 paths to ``target`` run through different states
        assert len({s for n, s in product_bfs(g, dfa, root)[1] if n in (left, right)}) == 2
        for graph in both_layouts(g):
            path = rpq_witnesses(graph, "(a.c)|(b.c)")[target]
            assert [(e.src, e.label.value, e.dst) for e in path] == [
                (root, first, left),
                (left, "c", target),
            ]


# -- the co-reachable prune -----------------------------------------------------------
#
# A plan whose non-exact guard repeats and whose accepted paths end on exact
# labels expands only the nodes with a path to an edge carrying one of
# them; every reached config is still recorded.  The two references below
# share no code with the kernel: a fixpoint for the region, a FIFO product
# BFS over ``edges_from`` for the walk.


def reference_region(g, dfa):
    """The nodes the pruned walk may expand, or ``None`` for all of them."""
    labels = dfa.final_labels()
    if labels is None or not dfa.wildcard_repeats:
        return None
    region = {e.src for e in g.edges() if e.label in labels}
    while True:
        grown = region | {e.src for e in g.edges() if e.dst in region}
        if grown == region:
            return region
        region = grown


def reference_walk(g, dfa, origin, region=None):
    """Explored configs, node -> shortest accepted path length, and levels
    expanded, of a product BFS that expands the origin and then only
    configs whose node is in ``region`` (every config for ``None``)."""
    seen = {(origin, dfa.start)}
    answers = {origin: 0} if dfa.is_accepting(dfa.start) else {}
    level, depth = [(origin, dfa.start)], 0
    while level:
        depth, nxt = depth + 1, []
        for node, state in level:
            for edge in g.edges_from(node):
                child = (edge.dst, dfa.step(state, edge.label))
                if dfa.is_dead(child[1]) or child in seen:
                    continue
                seen.add(child)
                if dfa.is_accepting(child[1]):
                    answers.setdefault(edge.dst, depth)
                if region is None or edge.dst in region:
                    nxt.append(child)
        level = nxt
    return seen, answers, depth


def test_final_labels_and_when_a_walk_is_pruned():
    cases = {
        '_*."Bogart"': (True, {string("Bogart")}),
        "Entry.Movie.(!Movie)*.Title": (True, {sym("Title")}),
        "(_*.a)?": (True, {sym("a")}),
        "(!l).b": (False, {sym("b")}),  # the wildcard cannot repeat: a bounded walk
        "Entry._.References._.Title": (False, {sym("Title")}),
        "a.(b|c)*": (False, {sym("a"), sym("b"), sym("c")}),
        "_*": (True, None),  # ends on a wildcard: nothing to prune to
    }
    for pattern, (repeats, final) in cases.items():
        dfa = compile_rpq(pattern)
        assert dfa.wildcard_repeats is repeats, pattern
        assert dfa.final_labels() == final, pattern


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_pruned_seen_is_the_walk_restricted_to_the_region(g, pattern):
    dfa = compile_rpq(pattern)  # shared: the CSR walk numbers its states first
    seen, answers, depth = reference_walk(g, dfa, g.root, reference_region(g, dfa))
    for graph in both_layouts(g):
        stepper = run_to_end(graph, dfa)
        assert stepper.seen == seen
        assert stepper.results == set(answers)
        assert stepper.supersteps == depth


@st.composite
def gapped_graphs(draw):
    """Small rooted graphs with gaps in their node ids, and a cut: the
    snapshot is derived from a cold freeze of the first ``cut`` nodes and
    edges, the way a commit derives the next version."""
    g = Graph()
    skips = st.sampled_from((0, 0, 2))
    nodes = [g.ensure_node(g._next_id + draw(skips)) for _ in range(draw(st.integers(2, 6)))]
    g.set_root(draw(st.sampled_from(nodes)))
    for _ in range(draw(st.integers(1, 10))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from("abc")),
            draw(st.sampled_from(nodes)),
        )
    return g, draw(st.integers(1, len(nodes))), draw(st.integers(0, 10))


def derived_snapshot(g, keep, cut):
    """``g`` as the derivation of a base holding its first ``keep`` nodes and
    the first ``cut`` of the edges among them, with the base's probe index
    carried over; plus the graph in the derivation's edge order."""
    nodes = list(g.nodes())
    base, ordered = Graph(), Graph()
    for node in nodes:
        ordered.ensure_node(node)
    for node in nodes[:keep]:
        base.ensure_node(node)
    inside = [e for e in g.edges() if base.has_node(e.src) and base.has_node(e.dst)]
    for edge in inside[:cut]:
        base.add_edge(edge.src, edge.label, edge.dst)
    if base.has_node(g.root):
        base.set_root(g.root)
    tail = [e for e in g.edges() if e not in inside[:cut]]
    for edge in inside[:cut] + tail:
        ordered.add_edge(edge.src, edge.label, edge.dst)
    ordered.set_root(g.root)
    fg = freeze(base)
    probes = probes_for(fg)
    probes.values  # built before the commit, so the derived version carries it
    derived = fg.derive(nodes[keep:], tail, g.root, 1)
    derived._ext["probes"] = probes.advance(derived, tail)
    assert derived._ext["probes"] is not None
    return derived, ordered


#: the naive baseline enumerates every path up to the bound: keep it cheap
NAIVE_BOUND = 10


@given(gapped_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=100, deadline=None)
def test_prop_pruned_walks_answer_what_naive_enumeration_does(gc, pattern):
    g, keep, cut = gc
    derived, ordered = derived_snapshot(g, keep, cut)
    assert derived.index is not None or list(g.nodes()) == list(range(g.num_nodes))
    dfa = compile_rpq(pattern)
    layouts = (g, freeze(g), derived)
    expected = {}
    for origin in g.nodes():
        _, answers, _ = reference_walk(g, dfa, origin)  # unpruned
        bound = max(answers.values(), default=0)
        if bound <= NAIVE_BOUND:
            assert naive_rpq(g, pattern, bound, start=origin) == set(answers)
        expected[origin] = set(answers)
    for graph in layouts:
        assert rpq_nodes(graph, pattern) == expected[g.root]
        assert rpq_nodes_many(graph, pattern, list(g.nodes())) == expected
    _, answers, _ = reference_walk(g, dfa, g.root)
    for graph in layouts:
        witnesses = rpq_witnesses(graph, pattern)
        assert set(witnesses) == set(answers)
        for node, path in witnesses.items():
            assert len(path) == answers[node]  # a shortest accepted path
            assert dfa.matches([edge.label for edge in path])
            assert [edge.src for edge in path[1:]] == [edge.dst for edge in path[:-1]]
            assert not path or (path[0].src, path[-1].dst) == (g.root, node)
    # ties break by edge order, which the derivation keeps per source
    assert rpq_witnesses(derived, pattern) == rpq_witnesses(ordered, pattern)


# -- the two directions of a superstep ------------------------------------------------
#
# Over a snapshot whose probe index is built, an exact-label state may pull
# from the index's per-label entry lists instead of pushing through its
# frontier's label runs.  The pull's setup cost ``_PULL_SETUP`` weighs the
# decision: set far below or above any count, it forces every exact-label
# state onto one side, so each side is held to the FIFO ``edges_from``
# walk on its own.


@contextmanager
def forced(side):
    """Every exact-label state takes ``side``: ``"pull"`` or ``"push"``."""
    setup = product._PULL_SETUP
    product._PULL_SETUP = -(10**9) if side == "pull" else 10**9
    try:
        yield
    finally:
        product._PULL_SETUP = setup


def dense_copy(g):
    """``g`` with its nodes renumbered ``0..n-1``, edge order kept."""
    ids = {node: i for i, node in enumerate(g.nodes())}
    dense = Graph()
    for i in ids.values():
        dense.ensure_node(i)
    for edge in g.edges():
        dense.add_edge(ids[edge.src], edge.label, ids[edge.dst])
    dense.set_root(ids[g.root])
    return dense


def indexed_snapshots(g, keep, cut):
    """The three snapshot kinds a pull reads, each with its probe index
    built: a dense cold freeze; a derivation (gaps in its ids, so indexed
    positions) whose index is built cold, every entry in the flat part; and
    the same derivation with its base's index carried, the commit's entries
    in the overflow."""
    dense = freeze(dense_copy(g))
    cold, _ = derived_snapshot(g, keep, cut)
    carried, _ = derived_snapshot(g, keep, cut)
    del cold._ext["probes"]
    for fg in (dense, cold):
        probes_for(fg).values
    return dense, cold, carried


SIDES = ("pull", "push")


@given(gapped_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_pull_equals_push_equals_the_edges_from_walk(gc, pattern):
    for fg in indexed_snapshots(*gc):
        dfa = compile_rpq(pattern)  # shared: seen holds the plan's state numbers
        fifo = RpqStepper._over(fg, dfa, [fg.root], parents=True)  # the FIFO body
        fifo.run()
        for side in SIDES:
            with forced(side):
                walk = run_to_end(fg, dfa)
            assert walk.results == fifo.results
            assert walk.seen == fifo.seen
            assert walk.supersteps == fifo.supersteps
        # on plans of their own, both sides build the states the full scan builds
        fresh = compile_rpq(pattern)
        RpqStepper._over(fg, fresh, [fg.root], parents=True).run()
        for side in SIDES:
            plan = compile_rpq(pattern)
            with forced(side):
                run_to_end(fg, plan)
            assert plan.num_materialized_states == fresh.num_materialized_states


@given(gapped_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=60, deadline=None)
def test_prop_either_side_keeps_the_many_origin_ops_sum(gc, pattern):
    for fg in indexed_snapshots(*gc):
        dfa = compile_rpq(pattern)
        origins = list(fg.nodes())
        for side in SIDES:
            with forced(side):
                many = RpqStepper._over(fg, dfa, origins)
                many.run()
                singles = [RpqStepper(fg, dfa, origin) for origin in origins]
                for single in singles:
                    single.run()
            assert many.ops == sum(single.ops for single in singles)
            assert rpq_nodes_many(fg, dfa, origins) == {s.origin: s.results for s in singles}


def test_a_pull_reads_the_live_labels_entries_and_counts_them():
    """A pulling state reads every entry of its live labels, its frontier's
    or not, and counts them as its ops; pushing, it reads its frontier's
    live runs."""
    g = Graph()
    root, a, b, c = (g.new_node() for _ in range(4))
    g.set_root(root)
    g.add_edge(root, "a", a)
    g.add_edge(a, "b", b)
    g.add_edge(c, "b", b)  # a ``b`` edge off the frontier
    g.add_edge(c, "b", a)
    fg = g.freeze()
    probes_for(fg).values
    ops = {}
    for side in SIDES:
        with forced(side):
            walk = run_to_end(fg, compile_rpq("a.b"))
        assert walk.results == {b}
        ops[side] = walk.ops
    assert ops == {"pull": 1 + 3, "push": 1 + 1}
