"""E2 -- regular path queries: automaton product vs. naive enumeration.

Claim operationalized (section 3): path regexes make arbitrary-length path
constraints tractable.  The product construction visits each (node, state)
pair once; naive path enumeration explodes with branching and never
terminates on cycles without an artificial bound.  Expected shape: the
product wins by orders of magnitude as depth grows, and remains correct on
cyclic data where the bounded baseline under-approximates.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.automata.plan_cache import PlanCache
from repro.automata.product import naive_rpq, rpq_nodes
from repro.datasets import generate_movies, generate_web
from repro.obs import QueryProfile
from repro.obs.export import write_bench
from repro.obs.metrics import MetricsRegistry

PATTERN = 'Entry.Movie.(!Movie)*."Allen"'


def test_e2_product_vs_naive(benchmark):
    rows = []
    records = {}
    cache = PlanCache(registry=MetricsRegistry())
    for entries in [20, 60, 180]:
        g = generate_movies(entries, seed=23, reference_fraction=0.3)
        fg = g.freeze()
        cache.get(PATTERN)  # warm: measure the kernel's steady state
        bound = 8
        product_s, product_hits = timed(lambda: rpq_nodes(g, PATTERN))
        frozen_s, frozen_hits = timed(
            lambda: rpq_nodes(fg, PATTERN, plan_cache=cache)
        )
        naive_s, naive_hits = timed(lambda: naive_rpq(g, PATTERN, max_length=bound), repeat=1)
        assert frozen_hits == product_hits
        assert naive_hits <= product_hits  # bounded baseline under-approximates
        profile = QueryProfile()
        rpq_nodes(g, PATTERN, profile=profile)
        records[f"movies{entries}"] = {
            "product_s": product_s,
            "frozen_s": frozen_s,
            "naive_s": naive_s,
            "profile": profile.as_dict(),
        }
        rows.append(
            (
                entries,
                g.num_edges,
                len(product_hits),
                f"{product_s * 1e3:.2f}ms",
                f"{frozen_s * 1e3:.2f}ms",
                f"{naive_s * 1e3:.2f}ms",
                f"x{naive_s / product_s:.0f}" if product_s else "-",
            )
        )
    print_table(
        f"E2: {PATTERN!r}, product vs naive (bound 8)",
        ["entries", "edges", "hits", "product", "frozen+cached", "naive", "naive/product"],
        rows,
    )
    # shape: the product wins, increasingly with size
    ratios = [float(r[6][1:]) for r in rows]
    assert ratios[-1] > 5.0
    assert ratios[-1] >= ratios[0]

    write_bench("e2_rpq", {"timings": records}, Path(__file__).parent / "out")

    g = generate_movies(180, seed=23, reference_fraction=0.3)
    benchmark(lambda: rpq_nodes(g, PATTERN))


def test_e2_termination_on_cycles(benchmark):
    """On a cyclic web graph the product terminates; the naive baseline
    can only explore to its bound."""
    web = generate_web(200, seed=5)
    pattern = "link*.keyword"
    product_s, hits = timed(lambda: rpq_nodes(web, pattern))
    bounded_s, bounded_hits = timed(lambda: naive_rpq(web, pattern, max_length=5), repeat=1)
    print_table(
        "E2b: cyclic web graph, link*.keyword",
        ["method", "hits", "time"],
        [
            ("product (complete)", len(hits), f"{product_s * 1e3:.2f}ms"),
            ("naive bound=5 (partial)", len(bounded_hits), f"{bounded_s * 1e3:.2f}ms"),
        ],
    )
    assert bounded_hits <= hits
    assert len(hits) > len(bounded_hits)  # the bound misses answers
    benchmark(lambda: rpq_nodes(web, pattern))
