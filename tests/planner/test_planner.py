"""Unit tests for the query planner's strategy routing.

Every route -- path index, DataGuide product, guide-masked kernel,
plain kernel -- must return the same answer; the strategies differ only
in what they read.  The ablation knobs (``strategy=...``) must raise
when forced onto an inapplicable route, and the profiled twins must say
*which* route answered through their ``extras``.
"""

import pytest

from repro.automata.product import rpq_nodes, rpq_witnesses
from repro.browse import find_value, where_is
from repro.core.builder import from_obj
from repro.core.frozen import freeze
from repro.obs import QueryProfile
from repro.planner import QueryPlanner, planner_for

MOVIES = {
    "Entry": [
        {
            "Movie": {
                "Title": "Casablanca",
                "Director": "Curtiz",
                "Year": 1942,
                "Cast": {"Actor": "Bogart", "Actress": "Bergman"},
            }
        },
        {"Movie": {"Title": "Heat", "Director": "Mann", "Year": 1995}},
        {"TVShow": {"Title": "Twin Peaks", "Episodes": 30}},
    ]
}

PATTERNS = [
    "Entry",
    "Entry.Movie.Title",
    "Entry.#.Title",
    "Entry.%how.Title",
    "Entry.(Movie|TVShow)",
    "Entry.Movie.(!Title)",
    "#",
    "Entry.Movie.Cast._",
]


@pytest.fixture()
def planner():
    return planner_for(from_obj(MOVIES))


def test_all_strategies_agree(planner):
    for pattern in PATTERNS:
        expected = rpq_nodes(planner.graph, pattern)
        for strategy in ("auto", "mask", "kernel"):
            assert planner.rpq(pattern, strategy=strategy) == expected, (
                pattern,
                strategy,
            )
        if planner.guide is not None:
            assert planner.rpq(pattern, strategy="guide") == expected, pattern


def test_index_strategy_answers_fixed_paths(planner):
    hit = planner.rpq("Entry.Movie.Title", strategy="index")
    assert hit == rpq_nodes(planner.graph, "Entry.Movie.Title")


def test_index_strategy_rejects_non_fixed_patterns(planner):
    with pytest.raises(ValueError, match="not index-coverable"):
        planner.rpq("Entry.#.Title", strategy="index")


def test_unknown_strategy_rejected(planner):
    with pytest.raises(ValueError, match="unknown strategy"):
        planner.rpq("Entry", strategy="warp")


def test_guide_strategy_raises_when_over_budget():
    p = QueryPlanner(from_obj(MOVIES), guide_max_states=1)
    assert p.guide is None
    with pytest.raises(ValueError, match="no DataGuide"):
        p.rpq("Entry", strategy="guide")
    # ...but auto still answers, through the unmasked kernel
    assert p.rpq("Entry.#.Title") == rpq_nodes(p.graph, "Entry.#.Title")
    assert p.mask_for("Entry.#.Title") is None


def test_non_root_start_takes_the_kernel(planner):
    fg = planner.graph
    root_movies = planner.rpq("Entry.Movie")
    for origin in root_movies:
        assert planner.rpq("Title", start=origin) == rpq_nodes(
            fg, "Title", start=origin
        )
        assert planner.witnesses("#", start=origin) == rpq_witnesses(
            fg, "#", start=origin
        )


def test_witnesses_identical_to_unmasked(planner):
    for pattern in PATTERNS:
        assert planner.witnesses(pattern) == rpq_witnesses(planner.graph, pattern), (
            pattern
        )


def test_masks_are_memoized_in_the_plan_cache(planner):
    first = planner.mask_for("Entry.#.Title")
    assert first is not None
    assert planner.mask_for("Entry.#.Title") is first
    assert planner.plan_cache.stats()["prunings"] >= 1


def test_planner_for_memoizes_per_snapshot():
    fg = freeze(from_obj(MOVIES))
    assert planner_for(fg) is planner_for(fg)
    # a different snapshot gets its own planner
    assert planner_for(freeze(from_obj(MOVIES))) is not planner_for(fg)


def test_profiled_extras_mark_the_answering_route(planner):
    profile = QueryProfile()
    results = planner.rpq("Entry.Movie.Title", profile=profile)
    assert results == rpq_nodes(planner.graph, "Entry.Movie.Title")
    assert profile.extras == {"index_answered": 1}
    assert profile.engine == "planner-rpq"
    assert profile.results == len(results)

    profile = QueryProfile()
    results = planner.rpq("Entry.#.Title", profile=profile)
    assert results == rpq_nodes(planner.graph, "Entry.#.Title")
    assert profile.extras == {"guide_answered": 1}

    profile = QueryProfile()
    witnesses = planner.witnesses("Entry.#.Title", profile=profile)
    assert witnesses == rpq_witnesses(planner.graph, "Entry.#.Title")
    assert profile.engine == "planner-rpq-witnesses"
    assert profile.extras["guide_pruned_partitions"] > 0


def test_profiled_kernel_route_reports_mask_strength():
    p = QueryPlanner(from_obj(MOVIES))
    # no guide -> the masked-kernel route reports zero pruning
    p._guide_failed = True
    profile = QueryProfile()
    results = p.rpq("Entry.#.Title", profile=profile)
    assert results == rpq_nodes(p.graph, "Entry.#.Title")
    assert profile.extras == {"guide_pruned_partitions": 0}


def test_browse_delegation_matches_scan(planner):
    g = from_obj(MOVIES)
    scanned = find_value(g, "Casablanca")
    via_planner = planner.find_value("Casablanca")
    assert [str(f) for f in via_planner] == [str(f) for f in scanned]
    assert planner.where_is("Casablanca") == where_is(g, "Casablanca")
    # the delegation went through the planner's value index
    assert planner.indexes.accounting()["value"]["hits"] >= 1


def test_describe_is_json_ready(planner):
    planner.rpq("Entry.Movie.Title")
    described = planner.describe()
    assert described["guide_available"] is True
    assert described["guide_states"] > 0
    assert described["statistics"]["edges"] == planner.graph.num_edges
    import json

    json.dumps(described)  # must not raise
