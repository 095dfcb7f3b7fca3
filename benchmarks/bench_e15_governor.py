"""E15 -- the query service: admission throughput, shedding, durability.

Three questions about the serving layer (docs/SERVICE.md):

* **admission throughput** -- the governor is a pure state machine on
  the hot path of every query; admit+release cycles must be cheap
  enough to disappear (target: >10k decisions/s even in pure Python);
* **shed-under-load curve** -- offered load beyond ``max_inflight +
  max_queue`` must be shed, served work must stay flat, and the queue
  must never exceed its bound: overload degrades *predictably*;
* **crash-safe save cost** -- rename-atomic durable saves pay fsyncs;
  measure the per-save tax against ``fsync=False``.  (Amortizing
  durability over many small changes is the write-ahead log's job: E18
  and ``bench_e2e``'s ``write_burst``, ``storage.wal.fsyncs_per_commit``.)

``BENCH_SMOKE=1`` shrinks the sweep for CI and skips the ratio
assertions (shared-runner timings are too noisy to gate on).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.datasets import generate_movies
from repro.obs.export import write_bench
from repro.obs.metrics import MetricsRegistry
from repro.resilience import SimulatedClock
from repro.service import AdmissionGovernor, InProcessHarness, QueryService
from repro.storage import atomic_write_bytes, dumps

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ADMIT_CYCLES = 2_000 if SMOKE else 50_000
BURSTS = [8, 16, 32] if SMOKE else [8, 16, 32, 64, 128, 256]
SAVES = 5 if SMOKE else 40
ENTRIES = 15 if SMOKE else 40

_RECORDS: dict = {}


def _service(**kw) -> QueryService:
    kw.setdefault("clock", SimulatedClock())
    kw.setdefault("metrics", MetricsRegistry())
    return QueryService(generate_movies(ENTRIES, seed=23), **kw)


def test_e15_admission_throughput(benchmark):
    """E15a: admit+release decision cycles per second."""
    gov = AdmissionGovernor(
        8, 16, clock=SimulatedClock(), metrics=MetricsRegistry()
    )

    def cycle_all():
        for i in range(ADMIT_CYCLES):
            gov.release(gov.admit(f"q{i}"))

    elapsed, _ = timed(cycle_all)
    rate = ADMIT_CYCLES / elapsed if elapsed else float("inf")
    _RECORDS["admission"] = {
        "cycles": ADMIT_CYCLES,
        "seconds": elapsed,
        "admits_per_s": rate,
    }
    print_table(
        "E15a: admission governor throughput (admit+release cycles)",
        ["cycles", "time", "decisions/s"],
        [(ADMIT_CYCLES, f"{elapsed * 1e3:.1f}ms", f"{rate:,.0f}")],
    )
    if not SMOKE:
        assert rate > 10_000  # the hot path must disappear
    benchmark(lambda: gov.release(gov.admit("bench")))


def test_e15_shed_under_load(benchmark):
    """E15b: offered bursts vs served/shed -- the degradation curve."""
    rows = []
    curve = []
    max_inflight, max_queue = 4, 8
    for offered in BURSTS:
        svc = _service(max_inflight=max_inflight, max_queue=max_queue)
        harness = InProcessHarness(svc)
        max_depth = 0

        def watch(task, step_count):
            nonlocal max_depth
            max_depth = max(max_depth, svc.governor.queue_depth)

        harness.on_step = watch
        elapsed, _ = timed(
            lambda: (
                harness.submit_all(
                    [
                        {"id": i, "op": "rpq", "query": "Entry.Movie.Title"}
                        for i in range(offered)
                    ]
                ),
                harness.run(),
            ),
            repeat=1,
        )
        responses = harness.responses
        ok = sum(1 for r in responses.values() if r["status"] == "ok")
        shed = sum(1 for r in responses.values() if r["status"] == "overloaded")
        assert ok + shed == offered  # one typed response each, always
        assert max_depth <= max_queue  # the bound held under the burst
        curve.append(
            {"offered": offered, "served": ok, "shed": shed,
             "max_queue_depth": max_depth, "seconds": elapsed}
        )
        rows.append(
            (offered, ok, shed, max_depth, f"{elapsed * 1e3:.1f}ms")
        )
        harness.close()
    _RECORDS["shed_curve"] = {
        "max_inflight": max_inflight,
        "max_queue": max_queue,
        "points": curve,
    }
    print_table(
        f"E15b: shed-under-load (capacity {max_inflight}+{max_queue} queue)",
        ["offered", "served", "shed", "peak queue", "time"],
        rows,
    )
    # served work is capped by capacity: beyond the knee it stays flat
    served = [p["served"] for p in curve]
    cap = max_inflight + max_queue
    for point in curve:
        if point["offered"] >= cap:
            assert point["served"] == cap
    assert all(s <= cap for s in served)

    svc = _service(max_inflight=max_inflight, max_queue=max_queue)
    harness = InProcessHarness(svc)

    def one_burst():
        harness.submit_all(
            [{"id": i, "op": "rpq", "query": "Entry.Movie.Title"} for i in range(16)]
        )
        harness.run()

    benchmark(one_burst)


def test_e15_service_overhead(benchmark):
    """E15c: the serving tax -- harness query vs direct kernel call."""
    from repro.automata.product import rpq_nodes

    svc = _service()
    harness = InProcessHarness(svc)
    query = "Entry.Movie.Title"
    repeat = 20 if SMOKE else 200

    def served():
        for i in range(repeat):
            harness.run_one({"id": i, "op": "rpq", "query": query})

    def direct():
        for _ in range(repeat):
            rpq_nodes(svc.frozen, query, plan_cache=svc.plan_cache)

    served_s, _ = timed(served)
    direct_s, _ = timed(direct)
    per_query_tax = (served_s - direct_s) / repeat
    _RECORDS["overhead"] = {
        "calls": repeat,
        "served_s": served_s,
        "direct_s": direct_s,
        "tax_per_query_s": per_query_tax,
    }
    print_table(
        f"E15c: service overhead over the bare kernel ({repeat} calls)",
        ["path", "time", "per call"],
        [
            ("direct kernel", f"{direct_s * 1e3:.1f}ms", f"{direct_s / repeat * 1e6:.0f}us"),
            ("served (admission+checkpoints)", f"{served_s * 1e3:.1f}ms",
             f"{served_s / repeat * 1e6:.0f}us"),
        ],
    )
    benchmark(lambda: harness.run_one({"id": 999, "op": "rpq", "query": query}))


def test_e15_crash_safe_save_cost(benchmark, tmp_path):
    """E15d: durability pricing -- per-save fsync vs none."""
    graph = generate_movies(ENTRIES, seed=23)

    def durable_saves():
        for i in range(SAVES):
            atomic_write_bytes(tmp_path / f"durable-{i}.graph", dumps(graph), fsync=True)

    def fast_saves():
        for i in range(SAVES):
            atomic_write_bytes(tmp_path / f"fast-{i}.graph", dumps(graph), fsync=False)

    durable_s, _ = timed(durable_saves, repeat=1)
    fast_s, _ = timed(fast_saves, repeat=1)

    # count the fsyncs each strategy actually pays
    counts = {}
    real_fsync = os.fsync
    for name, fn in (("durable", durable_saves), ("fast", fast_saves)):
        n = 0

        def counting_fsync(fd):
            nonlocal n
            n += 1
            real_fsync(fd)

        os.fsync = counting_fsync
        try:
            fn()
        finally:
            os.fsync = real_fsync
        counts[name] = n

    _RECORDS["crash_safe_save"] = {
        "saves": SAVES,
        "durable_s": durable_s,
        "fast_s": fast_s,
        "fsyncs": counts,
    }
    print_table(
        f"E15d: {SAVES} crash-safe saves (movies{ENTRIES})",
        ["strategy", "time", "fsyncs", "per save"],
        [
            ("atomic, per-save fsync", f"{durable_s * 1e3:.1f}ms",
             counts["durable"], f"{durable_s / SAVES * 1e3:.2f}ms"),
            ("atomic, no fsync", f"{fast_s * 1e3:.1f}ms",
             counts["fast"], f"{fast_s / SAVES * 1e3:.2f}ms"),
        ],
    )
    # the durability arithmetic is deterministic even when timings are not:
    # per-save durability costs 2 fsyncs (temp + directory)
    assert counts["durable"] == 2 * SAVES
    assert counts["fast"] == 0

    write_bench(
        "e15_governor",
        {
            "entries": ENTRIES,
            "smoke": SMOKE,
            "records": _RECORDS,
        },
        Path(__file__).parent / "out",
    )
    benchmark(lambda: atomic_write_bytes(tmp_path / "bench.graph", dumps(graph), fsync=True))
