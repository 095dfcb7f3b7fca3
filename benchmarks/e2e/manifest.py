"""The benchmark's declared surface: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is exactly ``manifest()`` dumped as
JSON (``python benchmarks/e2e/manifest.py`` prints it); the self-test
fails when the two drift.  Everything that names a metric -- the driver,
the tracer, the A/A comparison -- reads the names from here.
"""

from __future__ import annotations

import json

#: how long one run measures at the sizes in workloads.py (``--seconds``
#: scales the per-round op counts linearly from this)
RUN_SECONDS = 30

#: identical rounds per run; every end-to-end metric is its best round
ROUNDS = 5

WORKLOADS = [
    ("read_hot",
     "8 fixed read templates on an unchanging 2000-entry snapshot: engines and answer "
     "encoding do the work, every cache is warm, storage idle"),
    ("fig1_adhoc",
     "Figure 1 graph, RPQs from a 4096-pattern pool (16x the plan cache) plus find: "
     "codec, admission and plan compilation are the cost, engines are not"),
    ("mixed_rw",
     "1 synced apply then 9 reads, repeated: every commit drops the cached view, so reads "
     "pay freeze, thaw, OEM and SQL image again; guards freshness"),
    ("write_burst",
     "apply only, 15 unsynced + 1 synced per group across auto-checkpoints: WAL append, "
     "fsync, ingest and folds carry it; its WAL tail makes recovery a replay"),
]

#: (name, unit, better, bound) -- the bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.  On
#: the shared 2-vCPU KVM guest this was written on, ten runs on ten seeds
#: spread (interquartile range / median) 1-8 % per timing when the host was
#: quiet and 5-21 % when a neighbour was not, so the timings take the
#: largest bound the contract allows; server_rss_mb repeats to 0.5 % for a
#: seed and moves 2 % across seeds; disk_bytes_per_edge is an exact count.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("disk_bytes_per_edge", "bytes", "lower", 0.01),
    ("server_rss_mb", "MiB", "lower", 0.1),
    ("server_cpu_ms_per_op", "ms", "lower", 0.25),
]

#: span name -> what it wraps (trace.py resolves the dotted targets)
SPANS = {
    "service.server.roundtrip": None,  # the client's send -> last response byte
    "service.protocol.decode": ["repro.service.protocol:FrameDecoder.feed"],
    "service.protocol.validate": ["repro.service.protocol:validate_request"],
    "service.protocol.encode": ["repro.service.protocol:encode_frame"],
    "service.governor.admit": ["repro.service.governor:AdmissionGovernor.admit"],
    "service.governor.release": ["repro.service.governor:AdmissionGovernor.release"],
    "service.server.submit": ["repro.service.server:QueryService.submit"],
    "service.server.execute": ["repro.service.server:QueryTask.steps"],
    "storage.mvcc.view": ["repro.storage.mvcc:VersionedGraphStore.view"],
    "storage.mvcc.commit": ["repro.storage.mvcc:VersionedGraphStore.commit"],
    "storage.mvcc.checkpoint": ["repro.storage.mvcc:VersionedGraphStore.checkpoint"],
    "storage.mvcc.open": ["repro.storage.mvcc:VersionedGraphStore.__init__"],
    "core.frozen.freeze": ["repro.core.frozen:freeze"],
    "core.frozen.thaw": ["repro.core.frozen:FrozenGraph.thaw"],
    "core.convert.graph_to_oem": ["repro.core.convert:graph_to_oem"],
    "automata.plan_cache.lookup": ["repro.automata.plan_cache:PlanCache.lookup"],
    "automata.product.step": ["repro.automata.product:RpqStepper.step"],
    "automata.product.rpq_nodes": ["repro.automata.product:rpq_nodes"],
    "lorel.evaluate": ["repro.lorel:lorel"],
    "lorel.rows": ["repro.lorel:lorel_rows"],
    "unql.evaluate": ["repro.unql:unql"],
    "core.builder.to_obj": ["repro.core.builder:to_obj"],
    "browse.where_is": ["repro.browse.search:where_is"],
    "sqlbackend.build": [
        "repro.sqlbackend.backend:sql_backend_for",
        "repro.sqlbackend.backend:lorel_sql_backend_for",
    ],
    "sqlbackend.rpq": ["repro.sqlbackend.backend:SqlBackend.rpq_nodes"],
    "sqlbackend.lorel": ["repro.sqlbackend.backend:LorelSqlBackend.evaluate"],
    "storage.wal.append": ["repro.storage.wal:WriteAheadLog.append"],
    "storage.wal.sync": ["repro.storage.wal:WriteAheadLog.sync"],
    "storage.wal.truncate": ["repro.storage.wal:WriteAheadLog.truncate"],
    "storage.wal.replay": ["repro.storage.wal:WriteAheadLog.replay"],
    "storage.store.atomic_write": ["repro.storage.store:atomic_write_bytes"],
    "index.apply_delta": ["repro.index:GraphIndexes.apply_delta"],
    "schema.dataguide.refresh": ["repro.schema.dataguide:DataGuide.refresh"],
}

#: spans that only run when a store opens: reported per reopen of the
#: traced round's recover phase instead of per timed op
RECOVER_SPANS = ("storage.mvcc.open", "storage.wal.replay")

OP_CLASSES = ("rpq", "lorel", "unql", "find", "apply")

#: (name, unit, better) -- exact counts and per-class latencies
COUNTERS = [
    ("automata.plan_cache.hit_ratio", "ratio", "higher"),
    ("automata.product.edges_scanned_per_result", "count", "lower"),
    ("automata.product.supersteps_per_query", "count", "lower"),
    ("service.protocol.request_bytes_per_op", "bytes", "lower"),
    ("service.protocol.response_bytes_per_op", "bytes", "lower"),
    ("service.governor.queued_ratio", "ratio", "lower"),
    ("service.governor.shed_ratio", "ratio", "lower"),
    ("service.server.sql_answered_ratio", "ratio", "higher"),
    *[(f"service.server.{c}_p50_ms", "ms", "lower") for c in OP_CLASSES],
    *[(f"service.server.{c}_tail_ms", "ms", "lower") for c in OP_CLASSES],
    ("storage.mvcc.freezes_per_commit", "count", "lower"),
    ("storage.mvcc.checkpoints_per_1k_commits", "count", "lower"),
    ("storage.mvcc.checkpoint_bytes_per_edge", "bytes", "lower"),
    ("storage.wal.fsyncs_per_commit", "count", "lower"),
    ("storage.wal.bytes_per_commit", "bytes", "lower"),
    ("storage.wal.replayed_records", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.coverage_ratio", "ratio", "higher"),
]


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spans = []
    for name in SPANS:
        spans.append((f"{name}.self_us_per_op", "us", "lower"))
        spans.append((f"{name}.calls_per_op", "count", "lower"))
    return spans + COUNTERS


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
