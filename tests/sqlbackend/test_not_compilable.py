"""The refusal contract: outside the fragment means *typed* refusal.

The compiler's caps (IN-list size, DFA materialization) and the Lorel
fragment's edges (unknown bases, rebound aliases) must all surface as
:class:`NotCompilable` with a stable ``reason`` slug -- and in every
such case the native engine still answers, so a router that catches the
exception loses speed, never correctness.  The fuzz property at the
bottom drives both engines over a cap-straddling vocabulary and asserts
the full trichotomy: equal answers, or a typed refusal plus a native
answer.  Wrong SQL is not one of the outcomes.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.automata.product import rpq_nodes
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.oem import OemDatabase
from repro.lorel.ast import LorelQuery, PathOperand, SelectItem
from repro.sqlbackend import NotCompilable, SqlBackend, compile_lorel, lorel_sql
from repro.sqlbackend.compiler import MAX_IN_LIST

#: Every reason slug the package emits; routers may switch on these.
REASONS = {"vocabulary", "dfa-too-large", "base", "alias", "predicate", "no-from"}


@pytest.fixture(scope="module")
def wide_vocab_graph():
    """A graph whose ``x``-prefixed vocabulary exceeds the IN-list cap."""
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    hub = g.new_node()
    g.add_edge(root, "q", hub)
    for i in range(MAX_IN_LIST + 8):
        g.add_edge(root, f"x{i:04d}", hub)
    g.add_edge(hub, "x0000", root)
    return g


def test_vocabulary_cap(wide_vocab_graph):
    backend = SqlBackend(freeze(wide_vocab_graph))
    with pytest.raises(NotCompilable) as info:
        backend.compile("x%")
    assert info.value.reason == "vocabulary"
    assert backend.counters["not_compilable"] == 1


def test_dfa_cap():
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    g.add_edge(root, "a", root)
    long_cycle = "(" + ".".join(["a"] * 80) + ")*"
    with pytest.raises(NotCompilable) as info:
        SqlBackend(freeze(g)).compile(long_cycle)
    assert info.value.reason == "dfa-too-large"


def test_unconstrained_wildcard_is_fine(wide_vocab_graph):
    """``#`` matches the *whole* vocabulary: no IN-list, no cap."""
    fg = freeze(wide_vocab_graph)
    backend = SqlBackend(fg)
    assert backend.rpq_nodes("#") == rpq_nodes(fg, "#")


def test_lorel_unknown_base_reason():
    db = OemDatabase.from_obj({"A": 1})
    with pytest.raises(NotCompilable) as info:
        lorel_sql("select m.A from Nowhere.A m", db)
    assert info.value.reason == "base"


def test_lorel_no_from_reason():
    db = OemDatabase.from_obj({"A": 1})
    query = LorelQuery(
        items=(SelectItem(PathOperand("m", None, "m"), None),),
        from_clauses=(),
        where=None,
    )
    with pytest.raises(NotCompilable) as info:
        compile_lorel(query, db)
    assert info.value.reason == "no-from"


def test_not_compilable_is_a_value_error():
    """Routers that only know ``ValueError`` still catch the refusal."""
    assert issubclass(NotCompilable, ValueError)
    exc = NotCompilable("vocabulary", "too many labels")
    assert exc.reason == "vocabulary"
    assert "vocabulary" in str(exc)


_CAP_PATTERNS = st.sampled_from(
    [
        "x%",  # over the IN-list cap
        "q",
        "q.x0000",
        "x0000.q",
        "(x%)*",  # cap inside a closure
        "#",
        "(q|x0000)+",
        "!q",  # matches the whole x-vocabulary: over the cap
        "%0%",
        "q.#.q",
    ]
)


@given(_CAP_PATTERNS)
@settings(max_examples=30, deadline=None)
def test_fuzz_refuse_or_agree(wide_vocab_graph, pattern):
    """The trichotomy: agreement, or typed refusal + native answer."""
    fg = freeze(wide_vocab_graph)
    native = rpq_nodes(fg, pattern)
    try:
        via_sql = SqlBackend(fg).rpq_nodes(pattern)
    except NotCompilable as exc:
        event(f"refused: {exc.reason}")
        assert exc.reason in REASONS
        assert isinstance(native, set)  # native engine still answered
        return
    event("compiled")
    assert via_sql == native
