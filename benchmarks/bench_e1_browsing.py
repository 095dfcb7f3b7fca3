"""E1 -- the section 1.3 browsing queries: scan vs. index.

Claim operationalized: the three schema-free browsing queries are
answerable, and the section-4 indexes turn them from full scans into
near-constant lookups.  Expected shape: indexed wins on every query, by a
factor that grows with database size.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.browse import (
    find_attribute_names,
    find_integers_greater_than,
    find_value,
)
from repro.datasets import generate_movies
from repro.index import GraphIndexes
from repro.obs import QueryProfile
from repro.obs.export import write_bench

SIZES = [100, 400, 1600]


def test_e1_browsing_scan_vs_index(benchmark):
    rows = []
    records = {}
    for size in SIZES:
        g = generate_movies(size, seed=11)
        indexes = GraphIndexes(g).build_all()
        for name, scan_fn, idx_fn in [
            (
                "find 'Bogart'",
                lambda g=g: find_value(g, "Bogart"),
                lambda g=g, i=indexes: find_value(g, "Bogart", indexes=i),
            ),
            (
                "ints > 2^10",
                lambda g=g: find_integers_greater_than(g, 2**10),
                lambda g=g, i=indexes: find_integers_greater_than(g, 2**10, indexes=i),
            ),
            (
                "attrs 'act%'",
                lambda g=g: find_attribute_names(g, "act%"),
                lambda g=g, i=indexes: find_attribute_names(g, "act%", indexes=i),
            ),
        ]:
            scan_s, scan_hits = timed(scan_fn)
            idx_s, idx_hits = timed(idx_fn)
            assert {str(h) for h in scan_hits} == {str(h) for h in idx_hits}
            rows.append(
                (
                    size,
                    g.num_edges,
                    name,
                    len(scan_hits),
                    f"{scan_s * 1e3:.2f}ms",
                    f"{idx_s * 1e3:.2f}ms",
                    f"x{scan_s / idx_s:.1f}" if idx_s else "-",
                )
            )
            records[f"{size}/{name}"] = {
                "scan_s": scan_s,
                "indexed_s": idx_s,
                "hits": len(scan_hits),
            }
        # operation counts next to the timings they explain (scan vs index)
        scan_profile = QueryProfile()
        find_value(g, "Bogart", profile=scan_profile)
        idx_profile = QueryProfile()
        find_value(g, "Bogart", indexes=indexes, profile=idx_profile)
        records[f"{size}/profiles"] = {
            "scan": scan_profile.as_dict(),
            "indexed": idx_profile.as_dict(),
        }
    write_bench(
        "e1_browsing", {"timings": records}, Path(__file__).parent / "out"
    )
    print_table(
        "E1: browsing queries, scan vs indexed",
        ["entries", "edges", "query", "hits", "scan", "indexed", "speedup"],
        rows,
    )
    # shape: at the largest size the index wins every query
    largest = [r for r in rows if r[0] == SIZES[-1]]
    for row in largest:
        assert float(row[6][1:]) > 1.0, row

    g = generate_movies(SIZES[-1], seed=11)
    indexes = GraphIndexes(g).build_all()
    benchmark(lambda: find_value(g, "Bogart", indexes=indexes))
