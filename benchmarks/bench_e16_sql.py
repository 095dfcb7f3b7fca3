"""E16 -- the compile-to-relational backend vs the native engines.

Four workload families over the SQL backend, with the warm native
engines as the baseline everywhere:

* **flat RPQ** -- fixed/record-shaped chains on the relational bridge
  catalog and the movies OEM, where the compiler emits sargable
  ``wide``/``chain`` plans and sqlite's indexes do the work;
* **deep RPQ** -- Kleene-star closures on the web graph, where the
  compiled recursive CTE re-runs the kernel's BFS without its pruning;
* **Lorel bindings** -- a filtered clause chain on a mutable
  ``OemDatabase``, native binding enumeration vs the SQL join plan;
* **served shapes** -- what a server would run on each engine, on
  ``generate_movies(2000)`` at seeds 7 and 23: ``rpq_nodes`` with a plan
  cache against a guide-less ``sql_backend_for`` image, ``lorel`` on the
  snapshot's ``OemView`` against ``lorel_sql_backend_for(view).evaluate``,
  and ``unql`` against ``unql_sql``.

The acceptance gate: SQL >= 1.5x the kernel on at least one flat
workload.  The closures and the served shapes are recorded, not gated.  ``BENCH_SMOKE=1``
shrinks the sweep and skips the ratio assertions (shared CI runners are
too noisy to gate on).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.automata.plan_cache import PlanCache
from repro.automata.product import rpq_nodes
from repro.core.builder import to_obj
from repro.core.convert import OemView, graph_to_oem
from repro.core.frozen import freeze
from repro.datasets import generate_movies, generate_web
from repro.datasets.relational_data import generate_catalog
from repro.lorel import lorel, lorel_rows, parse_lorel
from repro.lorel.evaluator import lorel_bindings
from repro.obs.export import write_bench
from repro.relational.encode import relational_to_graph
from repro.schema.dataguide import DataGuide
from repro.sqlbackend import (
    NotCompilable,
    SqlBackend,
    lorel_sql_backend_for,
    sql_backend_for,
    unql_sql,
)
from repro.unql import parse_query, unql

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
MOVIES = 30 if SMOKE else 200
CATALOG = (30, 15) if SMOKE else (400, 150)
PAGES = 30 if SMOKE else 150
QUERY_REPEAT = 3 if SMOKE else 25
SERVED_MOVIES = 30 if SMOKE else 2000
SERVED_SEEDS = (7, 23)
SERVED_REPEAT = 2 if SMOKE else 10
SERVED_ROUNDS = 3 if SMOKE else 7

#: The flat workloads: record-shaped chains the compiler answers with
#: ``wide`` single-table scans or pruned self-join ``chain`` plans.
FLAT = {
    "catalog": ["Movies.tuple.title", "Casts.tuple.actor", "Movies.tuple.year"],
    "movies": ["Entry.Movie.Title", "Entry.Movie.Cast.Actors"],
}

#: The deep workloads: closures whose compiled form is a recursive CTE.
DEEP = ["link*.title", "link*.keyword", "link.link*.title"]

#: The served shapes: the read templates a server answers, per op.
SERVED_RPQ = [
    "Entry.Movie.Title",
    "Entry.Movie.Director",
    "Entry.Movie.Cast.Actors",
    "Entry.Movie.(References)*.Title",
    '_*."Bogart"',
]
SERVED_LOREL = [
    "select m.Title from DB.Entry.Movie m where m.Year < 1925",
    "select m.Title, c.Actors from DB.Entry.Movie m, m.Cast c",
]
SERVED_UNQL = [r"select \t where {Entry.Movie.Title: \t} in db"]

_RECORDS: dict = {}


def _flat_graphs():
    return {
        "catalog": relational_to_graph(generate_catalog(*CATALOG, seed=2)),
        "movies": generate_movies(MOVIES, seed=23),
    }


def test_e16_flat_sql_vs_kernel(benchmark):
    """Sargable plans on flat data: sqlite joins vs the Python kernel."""
    rows = []
    speedups = []
    backends = {}
    for name, graph in _flat_graphs().items():
        fg = freeze(graph)
        cache = PlanCache()
        backend = SqlBackend(fg, guide=DataGuide(fg))
        backends[name] = backend
        for pattern in FLAT[name]:
            plan = backend.compile(pattern)  # warm the plan cache
            native_res = rpq_nodes(fg, pattern, plan_cache=cache)  # warm
            assert backend.rpq_nodes(pattern) == native_res

            def native():
                return [
                    rpq_nodes(fg, pattern, plan_cache=cache) for _ in range(QUERY_REPEAT)
                ]

            def via_sql():
                return [backend.rpq_nodes(pattern) for _ in range(QUERY_REPEAT)]

            native_s, _ = timed(native)
            sql_s, _ = timed(via_sql)
            speedup = native_s / sql_s if sql_s else float("inf")
            speedups.append(speedup)
            _RECORDS.setdefault("flat", {})[f"{name}/{pattern}"] = {
                "kind": plan.kind,
                "nodes": len(native_res),
                "native_s": native_s,
                "sql_s": sql_s,
                "speedup": speedup,
            }
            rows.append(
                (
                    f"{name}/{pattern}",
                    plan.kind,
                    len(native_res),
                    f"{native_s * 1e3:.2f}ms",
                    f"{sql_s * 1e3:.2f}ms",
                    f"x{speedup:.1f}",
                )
            )
    print_table(
        f"E16a: flat chains, SQL vs kernel (catalog{CATALOG[0]}, movies{MOVIES})",
        ["workload", "plan", "nodes", "kernel", "sql", "speedup"],
        rows,
    )
    if not SMOKE:
        assert max(speedups) >= 1.5, speedups
    backend = backends["catalog"]
    benchmark(lambda: backend.rpq_nodes(FLAT["catalog"][0]))


def test_e16_deep_sql_vs_kernel(benchmark):
    """Closures: the recursive CTE against the kernel it re-runs unpruned."""
    fg = freeze(generate_web(PAGES, seed=7))
    cache = PlanCache()
    backend = SqlBackend(fg)
    rows = []
    for pattern in DEEP:
        native_res = rpq_nodes(fg, pattern, plan_cache=cache)  # warm
        assert backend.rpq_nodes(pattern) == native_res

        def native():
            return [rpq_nodes(fg, pattern, plan_cache=cache) for _ in range(QUERY_REPEAT)]

        def via_sql():
            return [backend.rpq_nodes(pattern) for _ in range(QUERY_REPEAT)]

        native_s, _ = timed(native)
        sql_s, _ = timed(via_sql)
        _RECORDS.setdefault("deep", {})[pattern] = {
            "nodes": len(native_res),
            "native_s": native_s,
            "sql_s": sql_s,
        }
        rows.append(
            (
                pattern,
                len(native_res),
                f"{native_s * 1e3:.2f}ms",
                f"{sql_s * 1e3:.2f}ms",
                f"x{sql_s / native_s:.1f}" if native_s else "-",
            )
        )
    print_table(
        f"E16b: closures, kernel vs SQL CTE (web{PAGES})",
        ["pattern", "nodes", "kernel", "sql-cte", "sql/kernel"],
        rows,
    )
    benchmark(lambda: rpq_nodes(fg, DEEP[0], plan_cache=cache))


def test_e16_lorel_sql_vs_native(benchmark):
    """Filtered clause chains: the SQL join plan vs native enumeration, on
    a mutable ``OemDatabase`` (bindings only: not the served path)."""
    db = graph_to_oem(generate_movies(MOVIES, seed=23))
    backend = lorel_sql_backend_for(db)
    queries = [
        "select m.Title from DB.Entry.Movie m where m.Year < 1960",
        "select m.Title, c.Actors from DB.Entry.Movie m, m.Cast c",
    ]
    rows = []
    for text in queries:
        query = parse_lorel(text)
        backend.compile(query)  # warm
        native_envs = lorel_bindings(query, db)
        assert backend.bindings(query) == native_envs

        def native():
            return [lorel_bindings(query, db) for _ in range(QUERY_REPEAT)]

        def via_sql():
            return [backend.bindings(query) for _ in range(QUERY_REPEAT)]

        native_s, _ = timed(native)
        sql_s, _ = timed(via_sql)
        speedup = native_s / sql_s if sql_s else float("inf")
        _RECORDS.setdefault("lorel", {})[text] = {
            "bindings": len(native_envs),
            "native_s": native_s,
            "sql_s": sql_s,
            "speedup": speedup,
        }
        rows.append(
            (
                text,
                len(native_envs),
                f"{native_s * 1e3:.2f}ms",
                f"{sql_s * 1e3:.2f}ms",
                f"x{speedup:.1f}",
            )
        )
    print_table(
        f"E16c: Lorel bindings, SQL vs native (movies{MOVIES} OemDatabase)",
        ["query", "bindings", "native", "sql", "speedup"],
        rows,
    )
    query = parse_lorel(queries[0])
    benchmark(lambda: backend.bindings(query))


def _alternated(native, via_sql, rounds: int) -> "tuple[float, float]":
    """Best time of each engine over ``rounds`` alternated rounds."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, fn in enumerate((native, via_sql)):
            seconds, _ = timed(fn, repeat=1)
            best[side] = min(best[side], seconds)
    return best[0], best[1]


def _served_row(records, rows, seed, op, query, kind, native, via_sql, repeat=SERVED_REPEAT):
    """Time one served shape (both engines already agree) and record it:
    ``native``/``via_sql`` answer ``repeat`` times per call; a single-shot
    shape (``repeat == 1``, seconds per SQL call) gets one round."""
    native_s, sql_s = _alternated(native, via_sql, SERVED_ROUNDS if repeat > 1 else 1)
    native_s, sql_s = native_s / repeat, sql_s / repeat
    speedup = native_s / sql_s if sql_s else float("inf")
    records[f"seed{seed}/{op}/{query}"] = {
        "kind": kind,
        "native_s": native_s,
        "sql_s": sql_s,
        "speedup": speedup,
    }
    rows.append(
        (
            seed,
            op,
            query,
            kind,
            f"{native_s * 1e3:.2f}ms",
            f"{sql_s * 1e3:.2f}ms",
            f"x{speedup:.3g}",
        )
    )


def test_e16_served_shapes(benchmark):
    """What a server runs on each engine: kernel with a plan cache vs a
    guide-less SQL image, Lorel on the ``OemView`` vs SQL Lorel on it,
    UnQL vs the per-member SQL rewrite.  Recorded, not gated."""
    records = _RECORDS.setdefault("served", {})
    rows = []
    for seed in SERVED_SEEDS:
        fg = freeze(generate_movies(SERVED_MOVIES, seed=seed))
        cache = PlanCache()
        backend = sql_backend_for(fg)
        for pattern in SERVED_RPQ:
            expected = rpq_nodes(fg, pattern, plan_cache=cache)
            try:
                kind = backend.compile(pattern).kind
            except NotCompilable as exc:
                records[f"seed{seed}/rpq/{pattern}"] = {"refused": exc.reason}
                rows.append((seed, "rpq", pattern, f"refused: {exc.reason}", "", "", ""))
                continue
            assert backend.rpq_nodes(pattern) == expected
            # a recursive CTE takes seconds per call at full size: one shot
            repeat = 1 if kind == "automaton" else SERVED_REPEAT

            def native(pattern=pattern, repeat=repeat):
                return [rpq_nodes(fg, pattern, plan_cache=cache) for _ in range(repeat)]

            def via_sql(pattern=pattern, repeat=repeat):
                return [backend.rpq_nodes(pattern) for _ in range(repeat)]

            _served_row(records, rows, seed, "rpq", pattern, kind, native, via_sql, repeat)
        view = OemView(fg)
        lorel_backend = lorel_sql_backend_for(view)
        for text in SERVED_LOREL:
            query = parse_lorel(text)
            assert lorel_rows(lorel_backend.evaluate(query)) == lorel_rows(lorel(text, view))

            def native(text=text):
                return [lorel(text, view) for _ in range(SERVED_REPEAT)]

            def via_sql(query=query):
                return [lorel_backend.evaluate(query) for _ in range(SERVED_REPEAT)]

            _served_row(records, rows, seed, "lorel", text, "join", native, via_sql)
        sources = {"db": fg, "DB": fg}
        for text in SERVED_UNQL:
            query = parse_query(text)
            assert to_obj(unql_sql(query, sources)) == to_obj(unql(text, db=fg))

            def native(text=text):
                return [unql(text, db=fg) for _ in range(SERVED_REPEAT)]

            def via_sql(query=query):
                return [unql_sql(query, sources) for _ in range(SERVED_REPEAT)]

            _served_row(records, rows, seed, "unql", text, "per-member", native, via_sql)
    print_table(
        f"E16d: served shapes, SQL vs native (movies{SERVED_MOVIES}, per query)",
        ["seed", "op", "query", "plan", "native", "sql", "speedup"],
        rows,
    )

    write_bench(
        "e16_sql",
        {
            "movies": MOVIES,
            "catalog": list(CATALOG),
            "pages": PAGES,
            "query_repeat": QUERY_REPEAT,
            "served_movies": SERVED_MOVIES,
            "served_seeds": list(SERVED_SEEDS),
            "served_repeat": SERVED_REPEAT,
            "timings": _RECORDS,
        },
        Path(__file__).parent / "out",
    )
    benchmark(lambda: backend.rpq_nodes(SERVED_RPQ[0]))
