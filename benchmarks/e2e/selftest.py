"""Self-test of the benchmark itself, at ``--smoke`` sizes (< 60 s).

    python benchmarks/e2e/selftest.py

Checks that the harness can fail and that it repeats: the manifest
matches ``BENCHMARK.json`` and the contract's limits, plans are a pure
function of the seed, exact counts repeat run to run, an injected wrong
answer and a lost acknowledged commit both show as failed ops, the span
tree is well nested with self times summing to each root, and a run
leaves no child, store, WAL handle, shared segment or listening port.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import run  # sets sys.path for the imports below
import trace as e2e_trace
import workloads
from manifest import END_TO_END, WORKLOADS, manifest, per_layer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7

#: per-layer metrics that are counts, not timings: they must repeat exactly
EXACT = [n for n, _, _ in per_layer() if n.endswith(".calls_per_op")] + [
    "automata.plan_cache.hit_ratio",
    "automata.product.edges_scanned_per_result",
    "automata.product.supersteps_per_query",
    "service.protocol.request_bytes_per_op",
    "service.protocol.response_bytes_per_op",
    "service.server.sql_answered_ratio",
    "storage.mvcc.freezes_per_commit",
    "storage.mvcc.checkpoints_per_1k_commits",
    "storage.mvcc.checkpoint_bytes_per_edge",
    "storage.wal.fsyncs_per_commit",
    "storage.wal.bytes_per_commit",
    "storage.wal.replayed_records",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def check_manifest() -> None:
    doc = manifest()
    path = run.ROOT / "BENCHMARK.json"
    if path.exists():
        check(json.loads(path.read_text()) == doc, "BENCHMARK.json equals manifest()")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in doc[group]]
    check(all(NAME.match(n) for n in names), "every name matches the contract's pattern")
    check(len(set(names)) == len(names), "every name is used once")
    check(all(UNIT.match(m["unit"]) for g in ("end_to_end", "per_layer") for m in doc[g]),
          "every unit matches the contract's pattern")
    check(2 <= len(doc["workloads"]) <= 8 and len(doc["end_to_end"]) <= 16
          and len(doc["per_layer"]) <= 128, "workload and metric counts within limits")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"]),
          "every why is one line of at most 200 characters")
    check(all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"]), "every bound is in (0, 0.25]")
    check(any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
              for m in doc["end_to_end"]), "setup_s is declared")


def check_plans() -> None:
    for name, _ in WORKLOADS:
        first = workloads.build(name, SEED, run.SMOKE_SCALE, smoke=True)
        again = workloads.build(name, SEED, run.SMOKE_SCALE, smoke=True)
        other = workloads.build(name, SEED + 1, run.SMOKE_SCALE, smoke=True)
        bodies = [r.body for r in first.timed]
        check(bodies == [r.body for r in again.timed]
              and [r.expect for r in first.timed] == [r.expect for r in again.timed],
              f"{name}: same seed, same plan")
        check(bodies != [r.body for r in other.timed]
              or first.base.num_edges != other.base.num_edges
              or [r.expect for r in first.timed] != [r.expect for r in other.timed],
              f"{name}: another seed, another plan")


def check_span_tree(name: str) -> None:
    tracer = e2e_trace.Tracer()
    tracer.spans = json.loads((run.OUT / f"trace_{name}.json").read_text())["spans"]
    tracer.check_nesting()
    own = tracer.self_times()
    spans, parent = tracer.spans, e2e_trace.PARENT
    root_of = list(range(len(spans)))
    subtree = [0] * len(spans)
    for i, span in enumerate(spans):
        if span[parent] is not None:
            root_of[i] = root_of[span[parent]]  # parents precede children in the list
        subtree[root_of[i]] += own[i]
    roots = [i for i, span in enumerate(spans) if span[parent] is None]
    check(min(own) >= 0 and all(
        subtree[i] == spans[i][e2e_trace.END] - spans[i][e2e_trace.START] for i in roots),
        f"{name}: {len(spans)} spans well nested, self times sum to their {len(roots)} roots")


def check_runs() -> None:
    e2e_names = {n for n, _, _, _ in END_TO_END}
    layer_names = {n for n, _, _ in per_layer()}
    for name, _ in WORKLOADS:
        record = run.run_workload(name, SEED, run.RUN_SECONDS, False, smoke=True)
        line = json.loads(run.contract_line(record))
        check(set(line) == {"correct", "attempted", "failed", "metrics"}
              and set(line["metrics"]) == e2e_names
              and all(set(m) == {"value", "unit"} and m["value"] > 0
                      for m in line["metrics"].values()),
              f"{name}: --trace 0 line carries every end-to-end metric, none zero")
        check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
              f"{name}: {line['attempted']} ops attempted, none failed")
        check(record["environment"]["smoke"] is True, f"{name}: result is stamped smoke")
        check(len(set(record["end_to_end"]["disk_bytes_per_edge"]["rounds"])) == 1,
              f"{name}: disk_bytes_per_edge repeats exactly round to round")

        layers = run.run_workload(name, SEED, run.RUN_SECONDS, True, smoke=True)
        line = json.loads(run.contract_line(layers))
        check(set(line["metrics"]) == layer_names and line["correct"],
              f"{name}: --trace 1 line carries every per-layer metric")
        check_span_tree(name)
        layers_again = run.run_workload(name, SEED, run.RUN_SECONDS, True, smoke=True)
        drift = [n for n in EXACT if layers["per_layer"][n] != layers_again["per_layer"][n]]
        check(not drift, f"{name}: {len(EXACT)} exact counts repeat run to run {drift}")
        check(layers["per_layer"]["index.apply_delta.calls_per_op"] == 0,
              f"{name}: index.apply_delta is never called")
    check(layers["per_layer"]["core.frozen.freeze.calls_per_op"] == 0,
          "write_burst: no freeze in the timed phase")
    check(layers["per_layer"]["storage.mvcc.checkpoints_per_1k_commits"] > 0,
          "write_burst: the smoke size still crosses a checkpoint fold")


def check_injection() -> None:
    plan = workloads.build("read_hot", SEED, run.SMOKE_SCALE, smoke=True)
    plan.timed[1].expect = ["not the answer"]
    record = run.run_workload("read_hot", SEED, run.RUN_SECONDS, False, smoke=True, plan=plan)
    check(record["failed_ops"] > 0 and not json.loads(run.contract_line(record))["correct"],
          "an injected wrong answer shows as failed ops")
    plan = workloads.build("write_burst", SEED, run.SMOKE_SCALE, smoke=True)
    plan.acked_version += 1  # pretend one more commit was acknowledged
    record = run.run_workload("write_burst", SEED, run.RUN_SECONDS, False, smoke=True, plan=plan)
    check(record["failed_ops"] > 0, "a lost acknowledged commit shows as failed ops")


def check_hygiene() -> None:
    from repro.core.shared import live_segments
    from repro.storage.wal import live_wal_handles

    check(not list(run.OUT.glob("work-*")), "no temp store left under out/")
    check(not live_wal_handles(), "no WAL handle left open")
    check(not live_segments(), "no /dev/shm segment left")
    try:
        os.waitpid(-1, os.WNOHANG)
        leftover = True
    except ChildProcessError:
        leftover = False
    check(not leftover, "no child process left unreaped")
    sockets = {
        os.readlink(fd)[8:-1]
        for fd in Path("/proc/self/fd").iterdir()
        if fd.exists() and os.readlink(fd).startswith("socket:[")
    }
    listening = [
        line.split()[9]
        for table in ("/proc/net/tcp", "/proc/net/tcp6")
        if Path(table).exists()
        for line in Path(table).read_text().splitlines()[1:]
        if line.split()[3] == "0A"
    ]
    check(not sockets & set(listening), "no listening port left")


def main() -> int:
    check_manifest()
    check_plans()
    check_runs()
    check_injection()
    check_hygiene()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
