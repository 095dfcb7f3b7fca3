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
  checkpoint accounting, many origins) is pinned here on both layouts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.plan_cache import PlanCache
from repro.automata.product import (
    RpqStepper,
    compile_rpq,
    product_bfs,
    rpq_nodes,
    rpq_nodes_many,
    rpq_witnesses,
)
from repro.core.graph import Graph
from repro.obs import QueryProfile
from repro.obs.metrics import MetricsRegistry
from repro.resilience import BudgetExhausted

#: Every guard shape the pruned product kernel must handle: exact labels
#: (prunable), alternation/closure mixes, and the non-exact guards
#: (``#``, ``_``, ``!a``) that force the full-scan fallback.
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


def run_to_end(graph, dfa, guide_mask=None):
    stepper = RpqStepper._over(graph, dfa, [graph.root], guide_mask)
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


def with_unused_vocabulary(g):
    """``g`` plus an unreachable chain carrying nine more labels, so that a
    guide mask can rule out three quarters of the alphabet."""
    tail = g.new_node()
    for label in "defghijkl":
        nxt = g.new_node()
        g.add_edge(tail, label, nxt)
        tail = nxt
    return g


def exact_guide_mask(g, fg, dfa):
    """Per DFA state, the label ids that advance it from a config the
    root-origin walk explores -- the tightest sound ``guide_mask``."""
    mask = {}
    for node, state in product_bfs(g, dfa, g.root)[1]:
        allowed = mask.setdefault(state, set())
        for edge in g.edges_from(node):
            if not dfa.is_dead(dfa.step(state, edge.label)):
                allowed.add(fg.label_index[edge.label])
    return {state: frozenset(lids) for state, lids in mask.items()}


@given(small_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_grouped_walk_under_a_guide_mask(g, pattern):
    g = with_unused_vocabulary(g)
    fg = g.freeze()
    dfa = compile_rpq(pattern)
    plain = run_to_end(g, dfa)
    built = dfa.num_materialized_states
    masked = run_to_end(fg, dfa, exact_guide_mask(g, fg, dfa))
    assert masked.results == plain.results
    assert masked.seen == plain.seen
    assert masked.supersteps == plain.supersteps
    assert masked.ops <= run_to_end(fg, dfa).ops  # a mask only ever skips more
    assert dfa.num_materialized_states == built  # and builds nothing a scan does not


def test_guide_mask_bounds_a_wildcard_state():
    """``!l`` has no finite live alphabet, so its state is scanned in full;
    a mask ruling out three quarters of the vocabulary turns that into
    partition probes -- same configs, same DFA states, fewer edges."""
    g = Graph()
    root, mid, hit, miss = (g.new_node() for _ in range(4))
    g.set_root(root)
    g.add_edge(root, "a", mid)
    g.add_edge(root, "l", miss)  # steps ``!l`` into the dead state
    g.add_edge(mid, "b", hit)
    g = with_unused_vocabulary(g)
    fg = g.freeze()
    dfa = compile_rpq("(!l).b")
    mask = exact_guide_mask(g, fg, dfa)
    assert mask[dfa.start] == {fg.label_index[g.edges_from(root)[0].label]}
    unmasked_plan, masked_plan = compile_rpq("(!l).b"), compile_rpq("(!l).b")
    unmasked = run_to_end(fg, unmasked_plan)
    # a fresh plan numbers its states as ``dfa`` did: both walked level by level
    masked = run_to_end(fg, masked_plan, mask)
    assert masked.results == unmasked.results == {hit}
    assert masked.seen == unmasked.seen
    assert (unmasked.ops, masked.ops) == (3, 2)
    assert masked_plan.num_materialized_states == unmasked_plan.num_materialized_states


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
