"""E12 -- storing semistructured data directly: the SSD1 round trip.

Section 4: "disk layout and clustering, together with appropriate
indexing, is also important" when semistructured data is stored
directly.  The clustering half is the asserted test
``tests/storage/test_clustering.py`` over the checkpoint's node order;
this bench records the serializer's half.  Expected shape: dump and
load are linear in the edge count, and every round trip is bisimilar.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.core.bisim import bisimilar
from repro.datasets import generate_movies
from repro.storage import dumps, loads


def test_e12_serialization_round_trip(benchmark):
    rows = []
    for entries in (100, 400, 1600):
        g = generate_movies(entries, seed=122)
        dump_s, data = timed(lambda: dumps(g), repeat=2)
        load_s, back = timed(lambda: loads(data), repeat=2)
        assert bisimilar(g, back)
        rows.append(
            (
                entries,
                g.num_edges,
                f"{len(data) / 1024:.0f}KiB",
                f"{len(data) / g.num_edges:.1f}B/edge",
                f"{dump_s * 1e3:.1f}ms",
                f"{load_s * 1e3:.1f}ms",
            )
        )
    print_table(
        "E12b: binary serialization round trip (bisimilar, verified)",
        ["entries", "edges", "bytes", "density", "dump", "load"],
        rows,
    )
    g = generate_movies(400, seed=122)
    benchmark(lambda: loads(dumps(g)))
