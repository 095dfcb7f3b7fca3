"""Tests for the SSD1 serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bisim import bisimilar
from repro.core.builder import from_obj
from repro.core.graph import Graph
from repro.core.labels import real, string
from repro.storage import SerializationError, dumps, loads


def sample() -> Graph:
    return from_obj(
        {
            "Entry": [
                {"Movie": {"Title": "Casablanca", "Year": 1942, "Credit": 1.2e6}},
                {"Movie": {"Title": "Sam", "Flags": [True, False]}},
            ]
        }
    )


class TestSerializer:
    def test_round_trip_tree(self):
        g = sample()
        assert bisimilar(loads(dumps(g)), g)

    def test_round_trip_all_label_kinds(self):
        g = Graph()
        r = g.new_node()
        g.set_root(r)
        for label in ["sym", string("str"), 42, -7, real(2.5), True, False]:
            g.add_edge(r, label, g.new_node())
        assert bisimilar(loads(dumps(g)), g)

    def test_round_trip_cycle(self):
        g = Graph()
        a, b = g.new_node(), g.new_node()
        g.set_root(a)
        g.add_edge(a, "References", b)
        g.add_edge(b, "Back", a)
        back = loads(dumps(g))
        assert back.has_cycle()
        assert bisimilar(back, g)

    def test_unreachable_dropped(self):
        g = sample()
        g.new_node()  # orphan
        assert loads(dumps(g)).num_nodes == len(g.reachable())

    def test_unicode_strings(self):
        g = from_obj({"Titre": "Âme café 映画"})
        assert bisimilar(loads(dumps(g)), g)

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"NOPE" + dumps(sample())[4:])

    def test_truncation_rejected(self):
        data = dumps(sample())
        with pytest.raises(SerializationError):
            loads(data[: len(data) // 2])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            loads(dumps(sample()) + b"x")

    def test_large_int_values(self):
        g = from_obj({"big": 2**40, "neg": -(2**40)})
        assert bisimilar(loads(dumps(g)), g)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 12))):
        label = draw(
            st.one_of(
                st.sampled_from(["a", "b"]),
                st.integers(-100, 100),
                st.booleans(),
                st.text(max_size=4).map(string),
            )
        )
        g.add_edge(
            draw(st.sampled_from(nodes)), label, draw(st.sampled_from(nodes))
        )
    return g


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_prop_serializer_round_trip(g):
    assert bisimilar(loads(dumps(g)), g)
