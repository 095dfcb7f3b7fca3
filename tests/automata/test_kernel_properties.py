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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.plan_cache import PlanCache
from repro.automata.product import (
    RpqStepper,
    compile_rpq,
    product_bfs,
    rpq_nodes,
    rpq_nodes_many,
    rpq_nodes_profiled,
    rpq_witnesses,
    rpq_witnesses_profiled,
)
from repro.core.graph import Graph
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
    dict_nodes, dict_profile = rpq_nodes_profiled(g, pattern)
    frozen_nodes, frozen_profile = rpq_nodes_profiled(g.freeze(), pattern)
    assert frozen_nodes == dict_nodes
    assert frozen_profile.as_dict() == dict_profile.as_dict()
    dict_wit, dict_wprof = rpq_witnesses_profiled(g, pattern)
    frozen_wit, frozen_wprof = rpq_witnesses_profiled(g.freeze(), pattern)
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
        assert [(o, r, s) for o, r, s, _ in many._walks] == [
            (single.origin, single.results, single.seen) for single in singles
        ]
        assert many.ops == sum(single.ops for single in singles)
        assert many.supersteps == max(single.supersteps for single in singles)
