"""Resilience overhead and recovery -- the layer must be (nearly) free.

Claims operationalized:

* **Fault-free overhead**: attaching a retry policy and breaker to the
  E1 (external browsing) hot path costs under 5% when nothing fails --
  the guarded call only pays for bookkeeping, and the unguarded path
  pays nothing at all.  (The E5 distributed path has no row: plain and
  resilient are one BSP loop, and a fault-free delivery is a counter
  increment.)
* **Recovery cost**: under injected transient failure (10% / 50% per
  contact) every query still answers exactly; the price is retry
  attempts and *simulated* backoff seconds, both fully deterministic
  functions of the fault seed (asserted by replaying the schedule).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.automata.product import rpq_nodes
from repro.core.builder import from_obj
from repro.core.graph import Graph
from repro.resilience import FaultInjector, RetryPolicy, SimulatedClock
from repro.storage.external import ExternalGraph

NUM_REGIONS = 120
PATTERN = "Entry.Detail.Movie.Title"


def external_base() -> Graph:
    g = from_obj({"Entry": [{"Id": i} for i in range(NUM_REGIONS)]})
    for i, node in enumerate(sorted(rpq_nodes(g, "Entry"))):
        detail = g.new_node()
        g.add_edge(node, "Detail", detail)
        ExternalGraph.add_stub(g, detail, f"page-{i}")
    return g


def fetch_page(key: str) -> Graph:
    i = int(key.rsplit("-", 1)[1])
    return from_obj({"Movie": {"Title": f"T{i}", "Year": 1900 + i}})


def test_fault_free_overhead_external(benchmark):
    """E1 hot path: full traversal + RPQ over external data, no faults."""
    base = external_base()

    def run_bare():
        ext = ExternalGraph(base, fetch_page)
        return len(rpq_nodes(ext, PATTERN))

    def run_guarded():
        ext = ExternalGraph(
            base,
            fetch_page,
            policy=RetryPolicy(max_attempts=4, base_delay=0.01),
            on_failure="partial",
        )
        return len(rpq_nodes(ext, PATTERN))

    run_bare(), run_guarded()  # warm both paths before timing
    bare_t, bare_n = timed(run_bare, repeat=15)
    guarded_t, guarded_n = timed(run_guarded, repeat=15)
    assert bare_n == guarded_n == NUM_REGIONS
    overhead = guarded_t / bare_t - 1.0
    print_table(
        "resilience: fault-free overhead on the E1 external-fetch path",
        ["variant", "best time (ms)", "answers"],
        [
            ("bare (no policies)", f"{bare_t * 1e3:.2f}", bare_n),
            ("retry+partial attached", f"{guarded_t * 1e3:.2f}", guarded_n),
            ("overhead", f"{overhead * 100:+.1f}%", "target < 5%"),
        ],
    )
    # generous CI bound; the 5% target is what the table documents
    assert overhead < 0.25
    benchmark(run_guarded)


def _chaotic_run(fail_rate: float, seed: int = 17):
    clock = SimulatedClock()
    injector = FaultInjector(seed=seed, fail_rate=fail_rate, clock=clock)
    ext = ExternalGraph(
        external_base(),
        injector.wrap_fetcher(fetch_page),
        policy=RetryPolicy(max_attempts=8, base_delay=0.05),
        on_failure="partial",
        clock=clock,
    )
    answers = len(rpq_nodes(ext, PATTERN))
    return answers, ext, injector, clock


def test_recovery_under_transient_failure(benchmark):
    """10% and 50% per-contact failure: exact answers, priced in retries."""
    rows = []
    slept_by_rate = {}
    for fail_rate in (0.0, 0.1, 0.5):
        answers, ext, injector, clock = _chaotic_run(fail_rate)
        report = ext.completeness()
        assert answers == NUM_REGIONS and report.complete, fail_rate
        slept_by_rate[fail_rate] = clock.slept
        rows.append(
            (
                f"{fail_rate:.0%}",
                answers,
                injector.total_calls,
                report.retries,
                f"{clock.slept:.2f}",
                report.complete,
            )
        )
    print_table(
        f"resilience: recovery on {NUM_REGIONS} external fetches (seed 17)",
        ["fail rate", "answers", "contacts", "retries", "sim backoff (s)", "exact"],
        rows,
    )
    # more failure -> more recovery time, and none when nothing fails
    assert slept_by_rate[0.0] == 0.0
    assert 0.0 < slept_by_rate[0.1] < slept_by_rate[0.5]
    # the schedule is deterministic: replaying it costs the same backoff
    _, _, _, replay_clock = _chaotic_run(0.5)
    assert replay_clock.slept == slept_by_rate[0.5]

    benchmark(lambda: _chaotic_run(0.5)[0])
