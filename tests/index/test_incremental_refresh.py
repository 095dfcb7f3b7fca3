"""Property: incremental index refresh == cold rebuild, for any edit script.

:meth:`GraphIndexes.apply_delta` and :meth:`DataGuide.refresh` maintain
the four physical indexes and the strong DataGuide from edge deltas.
The correctness obligation is *extensional equality with a cold
rebuild* after an arbitrary sequence of commits -- new nodes, edges into
old and new regions, cycles, re-rooting -- which is exactly the kind of
claim worth handing to Hypothesis rather than to hand-picked examples.

Each generated script is applied to a plain :class:`Graph` by
:class:`Maintained`, which works out the edges each commit makes newly
visible and hands them to the indexes and the guide, all forced
*before* the edits, so every commit goes through the incremental path,
never a rebuild.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.labels import integer, string, sym
from repro.index import GraphIndexes
from repro.schema.dataguide import DataGuide
from repro.storage import AddEdge, AddNode, SetRoot
from repro.storage.wal import apply_delta

MAX_EXAMPLES = 150 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 25

# small label alphabets force path/label collisions (the interesting case)
SYMBOLS = ["a", "b", "c"]
DATA = [string("x"), string("y"), integer(7), integer(42)]

label_strategy = st.one_of(
    st.sampled_from(SYMBOLS).map(sym),
    st.sampled_from(DATA),
)

# one op: ("node",) | ("edge", src_pick, label, dst_pick) | ("root", pick)
op_strategy = st.one_of(
    st.just(("node",)),
    st.tuples(
        st.just("edge"), st.integers(0, 10_000), label_strategy, st.integers(0, 10_000)
    ),
    st.tuples(st.just("root"), st.integers(0, 10_000)),
)

script_strategy = st.lists(  # a script is a list of commits, each a list of ops
    st.lists(op_strategy, min_size=1, max_size=6), min_size=1, max_size=8
)


class Maintained:
    """A graph with its indexes and guide maintained from edge deltas.

    The reference for which edges a commit makes newly visible: an edge
    out of a node reachable from the root is new, and so is every edge
    below a node it reaches for the first time -- each delivered once.
    Re-rooting is non-monotone: visibility and both structures restart.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.visible = graph.reachable() if graph.has_root else set()
        self.indexes = GraphIndexes(graph)
        self.guide = DataGuide(graph)

    def commit(self, deltas: list) -> None:
        graph, visible = self.graph, self.visible
        new_edges = []
        for delta in deltas:
            if isinstance(delta, AddEdge):
                edge = graph.add_edge(delta.src, delta.label, delta.dst)
                if edge.src not in visible:
                    continue
                new_edges.append(edge)
                stack = [] if edge.dst in visible else [edge.dst]
                visible.update(stack)
                while stack:
                    for e in graph.edges_from(stack.pop()):
                        new_edges.append(e)
                        if e.dst not in visible:
                            visible.add(e.dst)
                            stack.append(e.dst)
            else:
                apply_delta(graph, delta)
        if any(isinstance(delta, SetRoot) for delta in deltas):
            self.visible = graph.reachable()
            self.indexes.refresh()
            self.guide = DataGuide(graph)
        else:
            self.indexes.apply_delta(new_edges)
            if new_edges:
                self.guide.refresh(new_edges)


def run_script(model: Maintained, script: list) -> None:
    for ops in script:
        graph = model.graph
        pool = list(graph.nodes())
        next_id = graph._next_id
        deltas: list = []
        for op in ops:
            if op[0] == "node":
                deltas.append(AddNode(next_id))
                pool.append(next_id)
                next_id += 1
            elif op[0] == "edge":
                _, src_pick, label, dst_pick = op
                deltas.append(AddEdge(pool[src_pick % len(pool)], label, pool[dst_pick % len(pool)]))
            else:
                deltas.append(SetRoot(pool[op[1] % len(pool)]))
        model.commit(deltas)


def label_shape(index) -> dict:
    return {
        lab: sorted((e.src, e.dst) for e in edges)
        for lab, edges in index._by_label.items()
        if edges
    }


def value_shape(index) -> dict:
    return {
        lab: sorted((e.src, e.dst) for e in edges)
        for lab, edges in index._exact.items()
        if edges
    }


def text_shape(index) -> dict:
    return {
        word: sorted((e.src, e.dst) for e in index.containing_word(word))
        for word in index.vocabulary
    }


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(script=script_strategy, seed=st.integers(0, 3))
def test_refresh_equals_cold_rebuild(script: list, seed: int) -> None:
    from repro.datasets import generate_movies

    model = Maintained(generate_movies(3, seed=seed))
    model.indexes.build_all()  # arm the incremental path
    run_script(model, script)

    live = model.indexes
    cold = GraphIndexes(model.graph).build_all()

    # the path index answered incrementally, never via rebuild
    assert not live.path.is_stale()
    assert live.path._paths == cold.path._paths
    assert label_shape(live.label) == label_shape(cold.label)
    assert value_shape(live.value) == value_shape(cold.value)
    # the sorted arrays stayed sorted through every insort
    assert live.value._number_keys == sorted(live.value._number_keys)
    assert live.value._number_keys == cold.value._number_keys
    assert live.value._string_keys == cold.value._string_keys
    assert text_shape(live.text) == text_shape(cold.text)
    assert model.guide.equivalent_to(DataGuide(model.graph))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(script=script_strategy)
def test_lookups_never_raise_stale(script: list) -> None:
    """The StaleIndexError-free guarantee: after any commit sequence the
    path index serves lookups directly (GraphIndexes never rebuilds)."""
    g = Graph()
    g.set_root(g.new_node())
    model = Maintained(g)
    path_index = model.indexes.path
    for ops in script:
        run_script(model, [ops])
        # raises StaleIndexError if maintenance missed a version stamp
        model.indexes.path.lookup((sym("a"),))
    if not any(op[0] == "root" for ops in script for op in ops):
        # monotone scripts never rebuild: the same index object served
        # every commit (re-rooting is the designed reset)
        assert model.indexes.path is path_index


def test_an_edge_into_an_unreachable_region_opens_it() -> None:
    """A disconnected island enters the indexes only when an edge bridges
    to it, and then with its interior edges."""
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    model = Maintained(g)
    model.indexes.build_all()
    model.commit([AddNode(1), AddNode(2), AddEdge(1, sym("inner"), 2)])
    assert model.indexes.label.count(sym("inner")) == 0
    model.commit([AddEdge(root, sym("bridge"), 1)])
    assert model.indexes.label.count(sym("inner")) == 1
    cold = GraphIndexes(model.graph).build_all()
    assert model.indexes.path._paths == cold.path._paths
    assert model.guide.equivalent_to(DataGuide(model.graph))
