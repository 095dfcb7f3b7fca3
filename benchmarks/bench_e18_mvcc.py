"""E18 -- MVCC writes: incremental maintenance, group commit, recovery.

Three claims about the write path (docs/DURABILITY.md):

* **incremental index maintenance wins** -- a mixed read/write workload
  over a plain graph, served by indexes and a DataGuide refreshed from
  each write's edges (``GraphIndexes.apply_delta``,
  ``DataGuide.refresh``), must beat rebuild-on-stale by >=5x (the
  acceptance floor; the gap grows with database size because refresh
  cost tracks the delta, not the data);
* **group commit amortizes the fsync** -- N deferred-sync commits plus
  one ``sync()`` cost exactly 1 WAL fsync where per-commit sync costs
  N; the assertion is on deterministic fsync *counts*, not timings;
* **recovery is linear in the log, constant after a checkpoint** --
  reopen time grows with WAL records and collapses once a checkpoint
  folds them.

``BENCH_SMOKE=1`` shrinks the sweep for CI and skips the ratio
assertions (shared-runner timings are too noisy to gate on).
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _tables import print_table, timed

from repro.core.graph import Edge, Graph
from repro.datasets import generate_movies
from repro.index import GraphIndexes
from repro.obs.export import write_bench
from repro.schema.dataguide import DataGuide
from repro.storage import VersionedGraphStore
from repro.storage.serializer import STORAGE_METRICS

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ENTRIES = 10 if SMOKE else 40
ROUNDS = 5 if SMOKE else 30
GROUP_SIZES = [1, 4, 8] if SMOKE else [1, 4, 16, 64]
WAL_LENGTHS = [16, 64] if SMOKE else [64, 256, 1024]

_RECORDS: dict = {}


def _fresh_store(tmp_path: Path, name: str, **kw) -> VersionedGraphStore:
    kw.setdefault("durable", False)
    kw.setdefault("checkpoint_every", None)  # benches control folding
    return VersionedGraphStore.create(
        tmp_path / name, generate_movies(ENTRIES, seed=23), **kw
    )


def _write_round(store: VersionedGraphStore, k: int) -> None:
    batch = store.batch()
    movie = batch.new_node()
    title = batch.new_node()
    batch.add_edge(0, "Movie", movie)  # generate_movies roots at node 0
    batch.add_edge(movie, "Title", title)
    batch.add_edge(title, f"T{k}", title)
    batch.commit()


def _graph_round(graph: Graph, k: int) -> list[Edge]:
    """``_write_round`` on a plain graph; returns the newly visible edges:
    all three, since the new movie hangs below the root."""
    movie = graph.new_node()
    title = graph.new_node()
    return [
        graph.add_edge(graph.root, "Movie", movie),
        graph.add_edge(movie, "Title", title),
        graph.add_edge(title, f"T{k}", title),
    ]


def _read_round(indexes: GraphIndexes, guide: DataGuide) -> int:
    from repro.core.labels import sym

    hits = len(indexes.path.lookup((sym("Movie"), sym("Title"))) or ())
    hits += indexes.label.count(sym("Movie"))
    hits += guide.num_states
    return hits


def test_e18_incremental_vs_rebuild(benchmark, tmp_path):
    """E18a: mixed read/write -- delta refresh vs rebuild-on-stale."""
    incremental = generate_movies(ENTRIES, seed=23)
    rebuild = generate_movies(ENTRIES, seed=23)
    indexes = GraphIndexes(incremental)

    def run_incremental() -> int:
        total = 0
        indexes.build_all()
        guide = DataGuide(incremental)
        for k in range(ROUNDS):
            edges = _graph_round(incremental, k)
            indexes.apply_delta(edges)
            guide.refresh(edges)
            total += _read_round(indexes, guide)
        return total

    def run_rebuild() -> int:
        total = 0
        for k in range(ROUNDS):
            _graph_round(rebuild, k)
            cold = GraphIndexes(rebuild).build_all()
            total += _read_round(cold, DataGuide(rebuild))
        return total

    inc_s, inc_hits = timed(run_incremental, repeat=1)
    reb_s, reb_hits = timed(run_rebuild, repeat=1)
    speedup = reb_s / inc_s if inc_s else float("inf")
    _RECORDS["mixed_workload"] = {
        "rounds": ROUNDS,
        "incremental_s": inc_s,
        "rebuild_s": reb_s,
        "speedup": speedup,
    }
    print_table(
        f"E18a: {ROUNDS} write+read rounds (movies{ENTRIES})",
        ["strategy", "time", "per round"],
        [
            ("incremental refresh", f"{inc_s * 1e3:.1f}ms", f"{inc_s / ROUNDS * 1e3:.2f}ms"),
            ("rebuild on stale", f"{reb_s * 1e3:.1f}ms", f"{reb_s / ROUNDS * 1e3:.2f}ms"),
        ],
    )
    # both strategies answered identically (same final round, same hits)
    assert inc_hits > 0 and reb_hits > 0
    assert indexes.path._paths == GraphIndexes(incremental).build_all().path._paths
    if not SMOKE:
        assert speedup >= 5.0, f"incremental only {speedup:.1f}x over rebuild"

    store = _fresh_store(tmp_path, "bench")
    counter = iter(range(10_000_000))
    benchmark(lambda: _write_round(store, next(counter)))
    store.close()


def test_e18_group_commit_fsync_curve(benchmark, tmp_path):
    """E18b: fsync amortization -- deterministic counts, not timings."""
    rows = []
    curve = []
    for n in GROUP_SIZES:
        per_commit = _fresh_store(tmp_path, f"sync-{n}", durable=True)
        before = STORAGE_METRICS.counter("wal_syncs").value
        for k in range(n):
            batch = per_commit.batch()
            batch.new_node()
            batch.commit(sync=True)
        per_commit_fsyncs = STORAGE_METRICS.counter("wal_syncs").value - before
        per_commit.close()

        grouped = _fresh_store(tmp_path, f"group-{n}", durable=True)
        before = STORAGE_METRICS.counter("wal_syncs").value
        for k in range(n):
            batch = grouped.batch()
            batch.new_node()
            batch.commit(sync=False)
        grouped.sync()  # THE durability point for the whole group
        grouped_fsyncs = STORAGE_METRICS.counter("wal_syncs").value - before
        assert grouped.acked_version == n
        grouped.close()

        # the arithmetic is exact: N acks cost N fsyncs alone, 1 together
        assert per_commit_fsyncs == n
        assert grouped_fsyncs == 1
        curve.append(
            {"commits": n, "per_commit_fsyncs": per_commit_fsyncs,
             "grouped_fsyncs": grouped_fsyncs}
        )
        rows.append((n, per_commit_fsyncs, grouped_fsyncs, f"{n}x"))
    _RECORDS["fsync_curve"] = {"points": curve}
    print_table(
        "E18b: group-commit fsync amortization",
        ["commits", "per-commit fsyncs", "grouped fsyncs", "amortization"],
        rows,
    )

    store = _fresh_store(tmp_path, "bench-sync", durable=True)

    def deferred_commit():
        batch = store.batch()
        batch.new_node()
        batch.commit(sync=False)

    benchmark(deferred_commit)
    store.sync()
    store.close()


def test_e18_recovery_time_vs_wal_length(benchmark, tmp_path):
    """E18c: reopen cost grows with the log, collapses after checkpoint."""
    rows = []
    curve = []
    for length in WAL_LENGTHS:
        directory = tmp_path / f"wal-{length}"
        store = VersionedGraphStore.create(
            directory, generate_movies(ENTRIES, seed=23),
            durable=False, checkpoint_every=None,
        )
        for k in range(length):
            _write_round(store, k)
        store.close()

        def reopen():
            with VersionedGraphStore(directory, durable=False) as s:
                assert s.recovery.replayed_records == length
                return s.version

        replay_s, version = timed(reopen, repeat=1 if SMOKE else 3)
        assert version == length

        with VersionedGraphStore(directory, durable=False) as s:
            s.checkpoint()

        def reopen_folded():
            with VersionedGraphStore(directory, durable=False) as s:
                assert s.recovery.replayed_records == 0
                return s.version

        folded_s, _ = timed(reopen_folded, repeat=1 if SMOKE else 3)
        curve.append(
            {"wal_records": length, "replay_s": replay_s, "after_checkpoint_s": folded_s}
        )
        rows.append(
            (length, f"{replay_s * 1e3:.1f}ms", f"{folded_s * 1e3:.1f}ms")
        )
    _RECORDS["recovery_curve"] = {"points": curve}
    print_table(
        "E18c: recovery time vs WAL length",
        ["WAL records", "replay reopen", "post-checkpoint reopen"],
        rows,
    )
    if not SMOKE:
        # replay work is linear-ish: the longest log costs measurably more
        # than the shortest, and folding beats replaying the longest log
        assert curve[-1]["replay_s"] > curve[0]["replay_s"]
        assert curve[-1]["after_checkpoint_s"] < curve[-1]["replay_s"]

    write_bench(
        "e18_mvcc",
        {
            "entries": ENTRIES,
            "smoke": SMOKE,
            "records": _RECORDS,
        },
        Path(__file__).parent / "out",
    )
    directory = tmp_path / f"wal-{WAL_LENGTHS[0]}"
    benchmark(lambda: VersionedGraphStore(directory, durable=False).close())
