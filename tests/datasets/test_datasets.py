"""Tests for the dataset generators, including Figure 1's exact structure."""

import pytest

from repro.automata.product import rpq_nodes
from repro.browse import find_value
from repro.core.labels import real, sym
from repro.datasets import (
    acedb_schema,
    figure1,
    generate_acedb,
    generate_catalog,
    generate_movies,
    generate_web,
    random_algebra_term,
)
from repro.relational.algebra import evaluate


class TestFigure1:
    def test_three_entries(self):
        g = figure1()
        entries = [e for e in g.edges_from(g.root) if e.label == sym("Entry")]
        assert len(entries) == 3

    def test_two_movies_one_show(self):
        g = figure1()
        assert len(rpq_nodes(g, "Entry.Movie")) == 2
        assert len(rpq_nodes(g, "Entry.`TV Show`")) == 1

    def test_both_cast_representations(self):
        g = figure1()
        # representation A: Cast directly holds actor strings
        direct = rpq_nodes(g, 'Entry.Movie.Cast."Bogart"')
        assert direct
        # representation B: Cast -> Credit/Actors
        indirect = rpq_nodes(g, 'Entry.Movie.Cast.Actors."Allen"')
        assert indirect

    def test_the_egregious_error_is_present(self):
        assert find_value(figure1(), "Bacall")

    def test_credit_value(self):
        g = figure1()
        hits = [
            e
            for e in g.edges()
            if e.label == real(1.2e6)
        ]
        assert len(hits) == 1

    def test_episode_array_integer_labels(self):
        g = figure1()
        episodes = rpq_nodes(g, "Entry.`TV Show`.Episode")
        (ep,) = episodes
        labels = sorted(e.label.value for e in g.edges_from(ep))
        assert labels == [1, 2, 3]

    def test_reference_cycle(self):
        g = figure1()
        assert g.has_cycle()
        # following References then "Is referenced in" returns to the start
        back = rpq_nodes(g, "Entry.Movie.References.`Is referenced in`")
        assert back == rpq_nodes(g, "Entry.Movie.References.`Is referenced in`.References.`Is referenced in`")

    def test_allen_directed_and_acted(self):
        g = figure1()
        assert rpq_nodes(g, 'Entry.Movie.Director."Allen"')
        assert rpq_nodes(g, 'Entry.Movie.Cast.Actors."Allen"')


class TestGenerateMovies:
    def test_deterministic(self):
        from repro.core.bisim import bisimilar

        assert bisimilar(generate_movies(20, seed=5), generate_movies(20, seed=5))

    def test_entry_count(self):
        g = generate_movies(30, seed=1)
        entries = [e for e in g.edges_from(g.root) if e.label == sym("Entry")]
        assert len(entries) == 30

    def test_heterogeneous_casts(self):
        g = generate_movies(60, seed=2)
        direct = rpq_nodes(g, "Entry.Movie.Cast.<string>")
        indirect = rpq_nodes(g, "Entry.Movie.Cast.Actors")
        assert direct and indirect  # both representations occur

    def test_cycles_from_references(self):
        g = generate_movies(80, seed=3, reference_fraction=0.5)
        assert g.has_cycle()

    def test_titles_found_by_browsing(self):
        g = generate_movies(10, seed=4)
        titles = rpq_nodes(g, "Entry._.Title.<string>")
        assert titles


class TestGenerateWeb:
    def test_all_pages_reachable(self):
        g = generate_web(50, seed=1)
        pages = rpq_nodes(g, "link*")
        # every page node is link-reachable from the home page
        urls = rpq_nodes(g, "link*.url")
        assert len(urls) == 50

    def test_cyclic(self):
        assert generate_web(40, seed=2).has_cycle()

    def test_deterministic(self):
        from repro.core.bisim import bisimilar

        assert bisimilar(generate_web(15, seed=9), generate_web(15, seed=9))

    def test_keyword_text_present(self):
        g = generate_web(30, seed=3)
        assert rpq_nodes(g, "link*.keyword.<string>")

    def test_validates_args(self):
        with pytest.raises(ValueError):
            generate_web(0)


class TestGenerateAcedb:
    def test_conforms_to_loose_schema(self):
        g = generate_acedb(25, seed=1)
        assert acedb_schema().conforms(g)

    def test_arbitrary_depth_trees(self):
        g = generate_acedb(60, seed=2, max_depth=10)
        deep = rpq_nodes(g, "Locus.Clone.Contains.Contains.Contains")
        assert deep  # depth beyond any fixed schema

    def test_loose_attributes(self):
        g = generate_acedb(40, seed=3)
        loci = rpq_nodes(g, "Locus")
        with_ref = rpq_nodes(g, "Locus.Reference")
        assert 0 < len(with_ref) < len(loci)  # only some have references

    def test_shared_map_nodes(self):
        g = generate_acedb(40, seed=4)
        maps_via_locus = rpq_nodes(g, "Locus.Maps_to")
        maps_direct = rpq_nodes(g, "Map")
        assert maps_via_locus <= maps_direct  # Maps_to shares the Map nodes

    def test_validates_args(self):
        with pytest.raises(ValueError):
            generate_acedb(0)


class TestRelationalGenerators:
    def test_catalog_shapes(self):
        catalog = generate_catalog(20, 10, seed=1)
        assert set(catalog) == {"Movies", "Casts", "Directors"}
        assert len(catalog["Movies"]) == 20
        assert catalog["Casts"].schema == ("title", "actor")

    def test_random_terms_evaluate(self):
        catalog = generate_catalog(15, 8, seed=2)
        for seed in range(10):
            term = random_algebra_term(catalog, seed=seed)
            result = evaluate(term, catalog)  # must not raise
            assert result.schema

    def test_terms_deterministic(self):
        catalog = generate_catalog(10, 5, seed=0)
        assert random_algebra_term(catalog, seed=7) == random_algebra_term(
            catalog, seed=7
        )
