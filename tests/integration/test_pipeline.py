r"""Integration: full-system pipelines across package boundaries."""


from repro.browse import find_value
from repro.core import bisimilar, graph_to_oem, oem_to_graph
from repro.core.labels import string, sym
from repro.datasets import figure1, generate_acedb, generate_movies
from repro.index import GraphIndexes
from repro.lorel import lorel, lorel_rows
from repro.schema.dataguide import DataGuide
from repro.schema.inference import infer_schema
from repro.schema.to_relational import extract_tables
from repro.storage import atomic_write_bytes, dumps, loads
from repro.unql import fix_bacall, unql
from repro.unql.views import ViewCatalog


class TestStoreQueryPipeline:
    """ingest -> persist -> reload -> index -> query -> verify."""

    def test_round_trip_then_query(self, tmp_path):
        db = generate_movies(60, seed=301)
        path = tmp_path / "movies.ssd"
        atomic_write_bytes(path, dumps(db))
        reloaded = loads(path.read_bytes())
        assert bisimilar(db, reloaded)
        # query answers must be invariant under the round trip
        q = r"select \t where {Entry.Movie.Title: \t} in db"
        before = unql(q, db=db)
        after = unql(q, indexes=GraphIndexes(reloaded), db=reloaded)
        assert bisimilar(before, after)

    def test_serialized_bytes_query_equivalence(self):
        db = figure1()
        clone = loads(dumps(db))
        assert [str(f) for f in find_value(db, "Casablanca")] == [
            str(f) for f in find_value(clone, "Casablanca")
        ]


class TestRestructureThenVerify:
    """restructure -> schema-check -> summarize: the tools compose."""

    def test_fix_then_schema_still_conforms(self):
        db = figure1()
        schema = infer_schema(db)
        fixed = fix_bacall(db, string("Bacall"), string("Bergman"), sym("Cast"))
        # the fix only renames a string; the type-generalized schema holds
        assert schema.conforms(fixed)

    def test_fix_changes_dataguide_minimally(self):
        db = figure1()
        fixed = fix_bacall(db, string("Bacall"), string("Bergman"), sym("Cast"))
        before = {p for p in DataGuide(db).all_paths(4)}
        after = {p for p in DataGuide(fixed).all_paths(4)}
        gone = before - after
        added = after - before
        assert all(any(lab == string("Bacall") for lab in p) for p in gone)
        assert all(any(lab == string("Bergman") for lab in p) for p in added)


class TestIntegrationToStructured:
    """semistructured sources -> one graph -> back to relations."""

    def test_loose_data_resists_extraction_until_padded(self):
        db = generate_acedb(40, seed=302)
        report = extract_tables(db)
        # ACeDB data is genuinely semistructured: loci are not flat records
        assert "Locus" not in report.tables

    def test_views_feed_extraction(self):
        db = generate_movies(25, seed=303, reference_fraction=0.0)
        catalog = ViewCatalog(db=db)
        # a view that flattens movies into records: the view's root becomes
        # the table collection (one `tuple` edge per movie)
        catalog.define(
            "flat",
            r"select {tuple: {title: \t, year: \y}} "
            r"where {Entry.Movie: {Title: \t, Year: \y}} in db",
        )
        catalog.materialize_all()
        report = extract_tables(catalog["flat"].graph)
        assert "tuple" in report.tables
        table = report.tables["tuple"]
        assert set(table.schema) == {"title", "year"}
        assert len(table) > 0


class TestOemGraphLorelUnql:
    def test_same_answer_through_both_models(self):
        db = figure1()
        oem = graph_to_oem(db)
        # and back again: conversions compose
        assert bisimilar(oem_to_graph(oem), db)
        lorel_titles = {
            v
            for row in lorel_rows(
                lorel("select m.Title from DB.Entry.Movie m", oem)
            )
            for v in row["Title"]
        }
        out = unql(r"select \t where {Entry.Movie.Title: \t} in db", db=db)
        unql_titles = {
            e.label.value for e in out.edges_from(out.root) if e.label.is_base
        }
        assert lorel_titles == unql_titles == {"Casablanca", "Play it again, Sam"}


class TestFigure1EndToEnd:
    def test_the_full_tutorial_walk(self, tmp_path):
        """Figure 1 through every major subsystem, asserting at each step."""
        db = figure1()
        # browse
        assert len(find_value(db, "Allen")) == 2
        # schema
        schema = infer_schema(db)
        assert schema.conforms(db)
        # summarize
        guide = DataGuide(db)
        assert guide.path_exists((sym("Entry"), sym("Movie"), sym("Cast")))
        # restructure
        fixed = fix_bacall(db, string("Bacall"), string("Bergman"), sym("Cast"))
        # persist
        path = tmp_path / "fig1.ssd"
        atomic_write_bytes(path, dumps(fixed))
        final = loads(path.read_bytes())
        # verify end state
        assert find_value(final, "Bacall") == []
        assert len(find_value(final, "Bergman")) == 1
        assert final.has_cycle()  # the References cycle survived everything
