"""Property-based invariants of the observability layer.

Three laws the satellite spec pins down:

* histogram bucket counts always sum to the observation total, for any
  bound vector and observation stream;
* span trees are well-nested -- every child interval lies within its
  parent's, siblings appear in start order -- for any schedule of opens,
  closes, and clock advances;
* profiles are deterministic: running the same query twice over the same
  data yields the same counts, field for field.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.product import rpq_nodes
from repro.core.graph import Graph
from repro.obs import Histogram, QueryProfile, Tracer
from repro.resilience import SimulatedClock

# -- histogram: sum(counts) == total ------------------------------------------

bound_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
).map(lambda xs: sorted(set(xs))).filter(bool)

observations = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), max_size=50
)


@given(bounds=bound_vectors, values=observations)
def test_histogram_bucket_counts_sum_to_total(bounds, values):
    h = Histogram("h", bounds=bounds)
    for v in values:
        h.observe(v)
    assert sum(h.counts) == h.total == len(values)
    assert len(h.counts) == len(h.bounds) + 1


@given(bounds=bound_vectors, values=observations)
def test_histogram_every_observation_lands_at_or_below_its_bound(bounds, values):
    h = Histogram("h", bounds=bounds)
    for v in values:
        i = h.bucket_for(v)
        if i < len(h.bounds):
            assert v <= h.bounds[i]
        if i > 0:
            assert v > h.bounds[i - 1]


# -- span trees: well-nestedness for any schedule ------------------------------

span_programs = st.lists(
    st.one_of(
        st.just(("open",)),
        st.just(("close",)),
        st.floats(min_value=0.001, max_value=10.0, allow_nan=False).map(
            lambda d: ("advance", d)
        ),
    ),
    max_size=30,
)


@given(program=span_programs)
def test_span_trees_are_well_nested_for_any_schedule(program):
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    open_contexts = []  # entered tracer.span(...) context managers, outermost first
    for op in program:
        if op[0] == "open":
            cm = tracer.span(f"s{len(open_contexts)}")
            cm.__enter__()
            open_contexts.append(cm)
        elif op[0] == "close":
            if open_contexts:
                open_contexts.pop().__exit__(None, None, None)
        else:  # advance
            clock.advance(op[1])
    while open_contexts:
        open_contexts.pop().__exit__(None, None, None)

    assert tracer.current is None
    for root in tracer.roots:
        _assert_well_nested(root)


def _assert_well_nested(span):
    assert span.closed and span.start <= span.end
    previous_start = None
    for child in span.children:
        assert span.start <= child.start <= child.end <= span.end
        if previous_start is not None:
            assert child.start >= previous_start  # siblings in start order
        previous_start = child.start
        _assert_well_nested(child)


# -- profiles: deterministic across runs ---------------------------------------


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 12))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(["a", "b", "c"])),
            draw(st.sampled_from(nodes)),
        )
    return g


PATTERNS = ["a", "a.b", "(a|b)*", "a*.c", "_*.b"]


@settings(deadline=None)
@given(graph=small_graphs(), pattern=st.sampled_from(PATTERNS))
def test_rpq_profile_is_deterministic_across_runs(graph, pattern):
    profile1 = QueryProfile()
    results1 = rpq_nodes(graph, pattern, profile=profile1)
    profile2 = QueryProfile()
    results2 = rpq_nodes(graph, pattern, profile=profile2)
    assert results1 == results2
    assert profile1.as_dict() == profile2.as_dict()
    # and internally consistent: products visit at least the distinct nodes
    assert profile1.product_pairs >= profile1.nodes_visited
    assert profile1.results == len(results1)
