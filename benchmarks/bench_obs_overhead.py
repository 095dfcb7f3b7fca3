"""Observability overhead: each entry point with and without ``profile=``.

The profile contract (docs/OBSERVABILITY.md) promises that instrumented
evaluation stays within a few percent of the uninstrumented path -- the
counts are derived from the evaluation's own data structures after the
fact, not accumulated inside the hot loops.  This benchmark holds the
line: for each evaluator family, best-of-N wall time of the entry point
handed a ``QueryProfile`` must stay within ``OVERHEAD_BUDGET`` of the same
call without one on a representative workload.

Timing is deliberately defensive: the two variants are timed
*interleaved* (plain, profiled, plain, ...) so clock-frequency drift
hits both equally; each of several independent rounds produces a
best-of-N ratio; the table reports the median round and the assertion
takes the *minimum* round.  A genuine regression (instrumentation in
the hot loop) inflates every round, so the minimum still catches it,
while a single noisy round on a busy machine cannot fail the build.  A
small absolute floor keeps a sub-millisecond baseline from failing on
scheduler jitter.

One caveat, measured and reported rather than hidden: the post-hoc count
derivation costs ~0.1us per distinct visited node.  On a *leaf-heavy,
single-DFA-state* sweep (average out-degree near 1, one automaton state
per node) the plain BFS does so little work per node that this floor can
reach ~8-10% -- the ``rpq-sparse`` row below reports that worst case
without asserting on it.  Any pattern whose closure keeps two or more
states live per node (the queries worth profiling) amortizes the pass
into the noise, which the asserted ``rpq`` row demonstrates.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table

from repro.automata.product import rpq_nodes
from repro.browse import find_value
from repro.core.convert import graph_to_oem
from repro.datasets import generate_movies, generate_web
from repro.lorel import evaluate_lorel, parse_lorel
from repro.obs import QueryProfile
from repro.obs.export import write_bench
from repro.unql import evaluate_query, parse_query

#: profiled / plain wall-time ratio ceiling (the 5% budget)
OVERHEAD_BUDGET = 1.05
#: ignore ratios when the plain path is this fast (timer noise territory)
ABSOLUTE_FLOOR_S = 200e-6
#: independent measurement rounds; the assertion takes the best one
ROUNDS = 5
REPEAT = 12

RPQ_PATTERN = "(link.link)*.keyword"
SPARSE_PATTERN = 'Entry.Movie.(!Movie)*."Allen"'
UNQL_TEXT = r"select \t where {Entry.Movie.Title: \t} in db"
LOREL_TEXT = "select t from DB.Entry.Movie.Title t"


def timed_pair(plain, profiled, repeat=REPEAT):
    """Best-of-``repeat`` seconds for each of two thunks, interleaved."""
    best_plain = best_profiled = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        plain()
        best_plain = min(best_plain, time.perf_counter() - start)
        start = time.perf_counter()
        profiled()
        best_profiled = min(best_profiled, time.perf_counter() - start)
    return best_plain, best_profiled


def measure(plain, profiled, rounds=ROUNDS):
    """(median plain s, median ratio, min ratio) over independent rounds."""
    samples = []
    for _ in range(rounds):
        plain_s, profiled_s = timed_pair(plain, profiled)
        samples.append((plain_s, profiled_s / plain_s if plain_s else 1.0))
    samples.sort()
    plain_median = samples[len(samples) // 2][0]
    ratios = sorted(r for _, r in samples)
    return plain_median, ratios[len(ratios) // 2], ratios[0]


def test_obs_overhead_within_budget(benchmark):
    movies = generate_movies(150, seed=11, reference_fraction=0.2)
    web = generate_web(300, seed=5)
    oem = graph_to_oem(movies)
    unql_query = parse_query(UNQL_TEXT)
    lorel_query = parse_lorel(LOREL_TEXT)

    #: engine -> (plain thunk, profiled thunk, asserted?)
    cases = {
        "rpq": (
            lambda: rpq_nodes(web, RPQ_PATTERN),
            lambda: rpq_nodes(web, RPQ_PATTERN, profile=QueryProfile()),
            True,
        ),
        "rpq-sparse": (
            lambda: rpq_nodes(movies, SPARSE_PATTERN),
            lambda: rpq_nodes(movies, SPARSE_PATTERN, profile=QueryProfile()),
            False,  # the documented worst case: reported, not asserted
        ),
        "unql": (
            lambda: evaluate_query(unql_query, {"db": movies}),
            lambda: evaluate_query(unql_query, {"db": movies}, profile=QueryProfile()),
            True,
        ),
        "lorel": (
            lambda: evaluate_lorel(lorel_query, oem),
            lambda: evaluate_lorel(lorel_query, oem, profile=QueryProfile()),
            True,
        ),
        "browse": (
            lambda: find_value(movies, "Allen"),
            lambda: find_value(movies, "Allen", profile=QueryProfile()),
            True,
        ),
    }

    rows = []
    failures = []
    timings: dict[str, dict[str, float]] = {}
    for name, (plain, profiled, asserted) in cases.items():
        plain_s, ratio_median, ratio_min = measure(plain, profiled)
        timings[name] = {
            "plain_s": plain_s,
            "ratio_median": ratio_median,
            "ratio_min": ratio_min,
        }
        rows.append(
            (
                name,
                f"{plain_s * 1e3:.3f}ms",
                f"{ratio_median:.3f}",
                f"{ratio_min:.3f}",
                "<= 1.05" if asserted else "reported only",
            )
        )
        if asserted and plain_s >= ABSOLUTE_FLOOR_S and ratio_min > OVERHEAD_BUDGET:
            failures.append(f"{name}: {ratio_min:.3f}x (budget {OVERHEAD_BUDGET}x)")
    print_table(
        f"Obs overhead: profiled vs plain "
        f"(budget {OVERHEAD_BUDGET}x on min of {ROUNDS} rounds, best of {REPEAT} each)",
        ["engine", "plain", "ratio med", "ratio min", "budget"],
        rows,
    )
    assert not failures, "profiled paths over budget: " + "; ".join(failures)

    # the exported record carries the counts that explain the timings
    profiles: dict[str, dict[str, object]] = {}
    rpq_profile = QueryProfile()
    rpq_nodes(web, RPQ_PATTERN, profile=rpq_profile)
    profiles["rpq"] = rpq_profile.as_dict()
    unql_profile = QueryProfile(query=UNQL_TEXT)
    evaluate_query(unql_query, {"db": movies}, profile=unql_profile)
    profiles["unql"] = unql_profile.as_dict()
    write_bench(
        "obs_overhead",
        {"timings": timings, "profiles": profiles},
        Path(__file__).parent / "out",
    )

    benchmark(lambda: rpq_nodes(web, RPQ_PATTERN, profile=QueryProfile()))
