"""Property tests: Lorel pushdown is *observationally invisible*.

The index-seeded evaluator must equal the post-filtering one on
arbitrary databases and where-clause bounds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convert import OemView, oem_to_graph
from repro.core.frozen import freeze
from repro.core.oem import OemDatabase
from repro.lorel import lorel, lorel_rows


@st.composite
def movie_dbs(draw):
    titles = ["Casablanca", "Heat", "Ran", "Alien", "Brazil"]
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        movie = {
            "Title": draw(st.sampled_from(titles)),
            "Year": draw(st.integers(1930, 2000)),
        }
        if draw(st.booleans()):
            movie["Rating"] = draw(st.floats(0, 10, allow_nan=False))
        entries.append({"Movie": movie})
    return OemDatabase.from_obj({"Entry": entries})


LOREL_TEMPLATES = [
    "select m.Title from DB.Entry.Movie m where m.Year < {bound}",
    "select m.Title from DB.Entry.Movie m where {bound} <= m.Year",
    "select m.Year from DB.Entry.Movie m where m.Title like '%a%'",
    "select m.Title from DB.Entry.Movie m "
    "where m.Year > {bound} and m.Title like '%n%'",
    "select m.Title from DB.Entry.Movie m "
    "where m.Year > {bound} or m.Title = 'Heat'",
    "select m.Title, m.Year from DB.Entry.Movie m",
]


@given(movie_dbs(), st.sampled_from(LOREL_TEMPLATES), st.integers(1930, 2000))
@settings(max_examples=100, deadline=None)
def test_prop_index_seeded_lorel_equals_postfiltered(db, template, bound):
    text = template.format(bound=bound)
    seeded = sorted(map(repr, lorel_rows(lorel(text, db, use_indexes=True))))
    plain = sorted(map(repr, lorel_rows(lorel(text, db, use_indexes=False))))
    unoptimized = sorted(
        map(repr, lorel_rows(lorel(text, db, use_indexes=False, optimize=False)))
    )
    assert seeded == plain == unoptimized


#: every operator, the literal on either side, number and string literals
SNAPSHOT_TEMPLATES = [
    f"select m.Title from DB.Entry.Movie m where {left} {op} {right}"
    for op in ("=", "!=", "<", "<=", ">", ">=")
    for left, right in (
        ("m.Year", "{bound}"),
        ("{bound}", "m.Year"),
        ("m.Title", "'Heat'"),
        ("'Heat'", "m.Title"),
        ("m.Year", "'{bound}'"),
    )
]


@given(movie_dbs(), st.sampled_from(SNAPSHOT_TEMPLATES), st.integers(1930, 2000))
@settings(max_examples=150, deadline=None)
def test_prop_snapshot_pushdown_equals_postfiltered(db, template, bound):
    """On a snapshot the pushdown bisects the probe index's value table;
    it must still bind exactly what post-filtering binds."""
    view = OemView(freeze(oem_to_graph(db)))
    text = template.format(bound=bound)
    seeded = lorel_rows(lorel(text, view, use_indexes=True))
    assert seeded == lorel_rows(lorel(text, view, use_indexes=False))
