"""E14 -- index- and statistics-driven Lorel planning: what each buys.

Two ablations over the native Lorel evaluator:

* **Lorel pushdown** (E14c) -- where-predicates resolved through the OEM
  value groups seeding the binding stage, vs post-filtering;
* **statistics reordering** (E14d) -- frequency-driven clause costs vs
  the shape heuristic on a query whose rare clause the heuristic cannot
  see.

E14a (path-index / DataGuide routing of RPQs) and E14b (the guide-masked
kernel) were retired with the query planner: every path query walks the
CSR kernel (EXPERIMENTS.md says why).  ``BENCH_SMOKE=1`` shrinks the
sweep and skips the ratio assertions (shared CI runners are too noisy to
gate on).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.core.convert import graph_to_oem
from repro.datasets import generate_movies
from repro.lorel import parse_lorel, reorder_from_clauses
from repro.lorel.evaluator import lorel_bindings
from repro.obs.export import write_bench
from repro.planner import oem_indexes_for

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ENTRIES = 40 if SMOKE else 180
QUERY_REPEAT = 5 if SMOKE else 40

_RECORDS: dict = {}


def _movies():
    return generate_movies(ENTRIES, seed=23, reference_fraction=0.3)


def test_e14_lorel_pushdown(benchmark):
    """Index-seeded bindings vs post-filtering on selective where-clauses."""
    db = graph_to_oem(_movies())
    indexes = oem_indexes_for(db)  # built once, amortized across the queries
    queries = [
        "select m.Title from DB.Entry.Movie m where m.Year < 1925",
        "select m.Year from DB.Entry.Movie m where m.Title like '%Paris%'",
    ]
    rows = []
    speedups = []
    for text in queries:
        query = parse_lorel(text)

        def seeded():
            return [
                sorted(map(repr, lorel_bindings(query, db, indexes=indexes)))
                for _ in range(QUERY_REPEAT)
            ]

        def postfiltered():
            return [
                sorted(map(repr, lorel_bindings(query, db)))
                for _ in range(QUERY_REPEAT)
            ]

        plain_s, plain_res = timed(postfiltered)
        seeded_s, seeded_res = timed(seeded)
        assert seeded_res == plain_res
        speedup = plain_s / seeded_s if seeded_s else float("inf")
        speedups.append(speedup)
        _RECORDS.setdefault("pushdown", {})[text] = {
            "bindings": len(plain_res[0]),
            "postfilter_s": plain_s,
            "seeded_s": seeded_s,
            "speedup": speedup,
        }
        rows.append(
            (
                text,
                len(plain_res[0]),
                f"{plain_s * 1e3:.2f}ms",
                f"{seeded_s * 1e3:.2f}ms",
                f"x{speedup:.1f}",
            )
        )
    print_table(
        f"E14c: index-seeded vs post-filtered Lorel (movies{ENTRIES} OEM)",
        ["query", "bindings", "postfilter", "seeded", "speedup"],
        rows,
    )
    if not SMOKE:
        assert max(speedups) >= 1.5, speedups
    query = parse_lorel(queries[0])
    benchmark(lambda: lorel_bindings(query, db, indexes=indexes))


def test_e14_stats_reordering(benchmark):
    """Frequency-driven clause order vs the shape heuristic.

    The two from clauses are shape-identical (two exact steps each), so
    the heuristic keeps the broad ``Movie`` clause first; the statistics
    see that ``Documentary`` matches nothing, bind it first, and empty
    the environment set before any Movie is expanded.
    """
    db = graph_to_oem(_movies())
    indexes = oem_indexes_for(db)
    text = (
        "select d.Title from DB.Entry.Movie m, DB.Entry.Documentary d "
        "where m.Year < 1997"
    )
    query = parse_lorel(text)
    heuristic = reorder_from_clauses(query)
    informed = reorder_from_clauses(query, stats=indexes.stats)

    def run(ordered):
        return [
            sorted(map(repr, lorel_bindings(ordered, db))) for _ in range(QUERY_REPEAT)
        ]

    heuristic_s, heuristic_res = timed(lambda: run(heuristic))
    informed_s, informed_res = timed(lambda: run(informed))
    assert informed_res == heuristic_res
    speedup = heuristic_s / informed_s if informed_s else float("inf")
    _RECORDS["reordering"] = {
        "heuristic_order": [c.alias for c in heuristic.from_clauses],
        "informed_order": [c.alias for c in informed.from_clauses],
        "heuristic_s": heuristic_s,
        "informed_s": informed_s,
        "speedup": speedup,
    }
    print_table(
        f"E14d: statistics-driven clause reordering (movies{ENTRIES} OEM)",
        ["cost model", "order", "time", "speedup"],
        [
            ("shape heuristic", "->".join(_RECORDS["reordering"]["heuristic_order"]), f"{heuristic_s * 1e3:.2f}ms", ""),
            ("frequencies", "->".join(_RECORDS["reordering"]["informed_order"]), f"{informed_s * 1e3:.2f}ms", f"x{speedup:.1f}"),
        ],
    )
    if not SMOKE:
        assert informed_s < heuristic_s

    write_bench(
        "e14_planner",
        {
            "entries": ENTRIES,
            "query_repeat": QUERY_REPEAT,
            "timings": _RECORDS,
        },
        Path(__file__).parent / "out",
    )
    benchmark(lambda: run(informed))
