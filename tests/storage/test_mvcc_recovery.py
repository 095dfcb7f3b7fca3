"""Crash recovery: the deterministic interruption-point sweep, plus SIGKILL.

The acceptance property (ISSUE 10): for every seeded crash point in the
commit/checkpoint path -- and for a real ``SIGKILL`` mid-commit --
reopening the directory yields a *prefix-consistent* snapshot:

* every acknowledged commit is present (durability),
* the recovered version never exceeds what was written (no invention),
* the recovered graph equals the shadow state at that version exactly,
* the snapshot it serves equals a cold freeze of that shadow over the
  whole read API (zero divergence).

The sweep is deterministic: each scenario arms one
:class:`FaultInjector` outage key at one commit boundary, catches the
:class:`InjectedFault`, declares the process dead, and recovers.
"""

import contextlib
import copy
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.labels import string, sym
from repro.resilience import FaultInjector
from repro.resilience.errors import InjectedFault
from repro.storage import AddEdge, AddNode, VersionedGraphStore
from repro.storage.mvcc import CHECKPOINT_NAME, WAL_NAME, _decode_state, _encode_state
from repro.storage.wal import WriteAheadLog, apply_delta

from .test_derived_views import COMMITS, apply_commit, bases, dump

CRASH_POINTS = [
    "wal:append",        # before anything reaches the file
    "wal:append-torn",   # half a frame reaches the file
    "wal:fsync",         # written but never acknowledged
    "wal:truncate",      # checkpoint written, log not yet reset
    "checkpoint:begin",  # before the checkpoint blob exists
    "checkpoint:write",  # before the rename lands
]


def base_graph() -> Graph:
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    return g


def workload(n: int) -> list[list]:
    """Commit k (1-based) adds node k and an edge ``root --Lk--> k``."""
    return [
        [AddNode(k), AddEdge(0, sym(f"L{k}"), k), AddEdge(k, string(f"v{k}"), k)]
        for k in range(1, n + 1)
    ]


def shadow_at(version: int, deltas_by_seq: list[list]) -> Graph:
    """The ground-truth state after ``version`` commits."""
    g = base_graph()
    for deltas in deltas_by_seq[:version]:
        for delta in deltas:
            apply_delta(g, delta)
    return g


def same_state(g1: Graph, g2: Graph) -> bool:
    adj1 = {n: [(e.label, e.dst) for e in g1.edges_from(n)] for n in g1.nodes()}
    adj2 = {n: [(e.label, e.dst) for e in g2.edges_from(n)] for n in g2.nodes()}
    return adj1 == adj2 and (g1.root if g1.has_root else None) == (
        g2.root if g2.has_root else None
    )


def assert_prefix_consistent(
    directory: Path, *, acked: int, written: int, deltas_by_seq: list[list]
) -> int:
    """Reopen and check every recovery invariant; returns the version."""
    with VersionedGraphStore(directory, durable=False) as recovered:
        version = recovered.version
        assert acked <= version <= written, (
            f"recovered v{version} outside [acked={acked}, written={written}]"
        )
        expected = shadow_at(version, deltas_by_seq)
        assert same_state(recovered.graph, expected), f"state diverges at v{version}"
        # zero divergence: what the store serves after recovery is exactly
        # what a cold freeze of the ground-truth state holds
        assert dump(recovered.view().frozen) == dump(freeze(expected))
    return version


class TestInterruptionSweep:
    @pytest.mark.parametrize("crash_key", CRASH_POINTS)
    @pytest.mark.parametrize("crash_at", [1, 3, 5])
    def test_crash_at_every_point_and_boundary(
        self, tmp_path: Path, crash_key: str, crash_at: int
    ) -> None:
        """Arm one crash point before commit ``crash_at``; recovery must
        land between the last ack and the last write, with exact state."""
        deltas_by_seq = workload(6)
        injector = FaultInjector(seed=0)
        directory = tmp_path / "store"
        store = VersionedGraphStore.create(
            directory, base_graph(), durable=True, injector=injector
        )
        store.view()  # a reader pins v0, so the first commit retires it
        acked = written = 0
        try:
            for seq, deltas in enumerate(deltas_by_seq, start=1):
                if seq == crash_at:
                    injector.outages = frozenset({crash_key})
                guard = (
                    pytest.raises(InjectedFault)
                    if seq == crash_at
                    else contextlib.nullcontext()
                )
                with guard:
                    if crash_key.startswith("checkpoint") or crash_key == "wal:truncate":
                        store.commit(deltas)
                        written = acked = seq
                        if seq == crash_at:
                            store.checkpoint()
                    else:
                        store.commit(deltas)
                        written = acked = seq
                if seq == crash_at:
                    break
                # commit succeeded pre-crash-point
        finally:
            store.close()  # the "process" is dead; release the fd

        if crash_key in ("wal:append", "wal:append-torn"):
            written = crash_at - 1  # the frame never (fully) landed
        elif crash_key == "wal:fsync":
            written = crash_at  # written, durable-by-luck, never acked
            acked = crash_at - 1
        # checkpoint crashes happen after commit crash_at succeeded

        version = assert_prefix_consistent(
            directory, acked=acked, written=written, deltas_by_seq=deltas_by_seq
        )
        # recovery is stable: reopening again changes nothing
        with VersionedGraphStore(directory, durable=False) as again:
            assert again.version == version

    @pytest.mark.parametrize("crash_key", ["wal:truncate", "checkpoint:write"])
    def test_resume_after_checkpoint_crash(self, tmp_path: Path, crash_key: str) -> None:
        """A store that crashed mid-checkpoint keeps accepting commits
        after recovery -- the log and checkpoint re-converge."""
        deltas_by_seq = workload(4)
        injector = FaultInjector(seed=0)
        directory = tmp_path / "store"
        store = VersionedGraphStore.create(
            directory, base_graph(), durable=True, injector=injector
        )
        for deltas in deltas_by_seq[:2]:
            store.commit(deltas)
        injector.outages = frozenset({crash_key})
        with pytest.raises(InjectedFault):
            store.checkpoint()
        store.close()

        with VersionedGraphStore(directory, durable=True) as recovered:
            assert recovered.version == 2
            for deltas in deltas_by_seq[2:]:
                recovered.commit(deltas)
            recovered.checkpoint()
            expected = shadow_at(4, deltas_by_seq)
            assert same_state(recovered.graph, expected)
        with VersionedGraphStore(directory, durable=False) as final:
            assert final.version == 4
            assert final.recovery.replayed_records == 0


class TestWriteAfterRecovery:
    """Recovery must trim the discarded debris from the log *file*.

    The log reopens in append mode, so a commit made after recovering a
    torn store would otherwise land behind the debris -- acknowledged,
    yet unreachable at the next replay.  Found by driving the CLI: a
    torn store served writes that vanished on the following reopen.
    """

    def test_acked_commit_after_torn_tail_recovery_survives(
        self, tmp_path: Path
    ) -> None:
        deltas_by_seq = workload(4)
        directory = tmp_path / "store"
        store = VersionedGraphStore.create(directory, base_graph(), durable=True)
        for deltas in deltas_by_seq[:2]:
            store.commit(deltas)
        store.close()
        wal = directory / "wal.ssdw"
        wal.write_bytes(wal.read_bytes()[:-3])  # power loss tears commit 2

        with VersionedGraphStore(directory, durable=True) as reopened:
            assert reopened.version == 1
            assert reopened.recovery.discarded_bytes > 0
            reopened.commit(deltas_by_seq[1])  # re-acked after recovery

        assert (
            assert_prefix_consistent(
                directory, acked=2, written=2, deltas_by_seq=deltas_by_seq
            )
            == 2
        )

    def test_acked_commits_after_gap_recovery_survive(self, tmp_path: Path) -> None:
        deltas_by_seq = workload(4)
        directory = tmp_path / "store"
        store = VersionedGraphStore.create(directory, base_graph(), durable=True)
        for deltas in deltas_by_seq[:3]:
            store.commit(deltas)
        store.close()
        wal = directory / "wal.ssdw"
        raw = wal.read_bytes()
        frames, pos = [], 4
        while pos < len(raw):
            length = int.from_bytes(raw[pos : pos + 4], "big")
            frames.append(raw[pos : pos + 8 + length])
            pos += 8 + length
        assert len(frames) == 3
        wal.write_bytes(raw[:4] + frames[0] + frames[2])  # lose the middle record

        with VersionedGraphStore(directory, durable=True) as reopened:
            assert reopened.version == 1
            assert reopened.recovery.discarded_records == 1
            reopened.commit(deltas_by_seq[1])
            reopened.commit(deltas_by_seq[2])

        assert (
            assert_prefix_consistent(
                directory, acked=3, written=3, deltas_by_seq=deltas_by_seq
            )
            == 3
        )


class TestWholeRecords:
    def test_a_record_that_fails_validation_applies_nothing(self, tmp_path: Path) -> None:
        """A CRC-valid record whose edge points nowhere is discarded whole:
        the node it added is absent and its id is still the next fresh one."""
        directory = tmp_path / "store"
        VersionedGraphStore.create(directory, base_graph(), durable=False).close()
        node = 1
        with WriteAheadLog(directory / WAL_NAME) as wal:
            wal.append(1, [AddNode(node), AddEdge(node, sym("x"), 10**9)])
        with VersionedGraphStore(directory, durable=False) as reopened:
            assert reopened.recovery.discarded_records == 1
            assert reopened.version == 0
            assert not reopened.graph.has_node(node)
            assert reopened.batch().new_node() == node
            assert reopened.stats()["nodes"] == 1


def assert_checkpoint_holds(directory: Path, shadow: Graph) -> None:
    """The checkpoint decodes to the shadow and its next id, and the
    decoded snapshot re-encodes to the same bytes."""
    raw = (directory / CHECKPOINT_NAME).read_bytes()
    seq = int.from_bytes(raw[4:12], "big")
    fg, next_id = _decode_state(raw[16:], seq)
    assert dump(fg) == dump(freeze(shadow))
    assert next_id == shadow._next_id
    assert _encode_state(fg, next_id, seq) == raw


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bases(), COMMITS)
def test_checkpoints_encode_the_shadow_and_reopen_to_it(base, commits):
    """Over commits with skipped ids, re-roots, reads and folds: every
    checkpoint decodes to the shadow and re-encodes to its own bytes, and
    reopening serves the shadow."""
    shadow = copy.deepcopy(base)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "s"
        store = VersionedGraphStore.create(directory, base, durable=False)
        try:
            assert_checkpoint_holds(directory, shadow)
            for commit in commits:
                apply_commit(store, shadow, commit)
                if commit[3]:
                    store.view()
                if commit[4]:
                    store.checkpoint()
                    assert_checkpoint_holds(directory, shadow)
        finally:
            store.close()
        with VersionedGraphStore(directory, durable=False) as reopened:
            assert reopened.version == len(commits)
            assert same_state(reopened.graph, shadow)
            assert dump(reopened.view().frozen) == dump(freeze(shadow))
            assert reopened.batch().new_node() == shadow._next_id


# -- the real thing: SIGKILL mid-commit ---------------------------------------------

KILL_CHILD = """
import sys
from repro.core.graph import Graph
from repro.core.labels import string, sym
from repro.storage import AddEdge, AddNode, VersionedGraphStore

g = Graph()
root = g.new_node()
g.set_root(root)
store = VersionedGraphStore.create(sys.argv[1], g, durable=True)
print("ready", flush=True)
seq = 0
while True:  # commit forever; the parent pulls the plug mid-flight
    seq += 1
    node = seq
    store.commit([AddNode(node), AddEdge(0, sym(f"L{seq}"), node),
                  AddEdge(node, string(f"v{seq}"), node)])
    print(f"acked {seq}", flush=True)
"""


def test_sigkill_mid_commit_recovers_prefix(tmp_path: Path) -> None:
    directory = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_CHILD, str(directory)],
        stdout=subprocess.PIPE,
        env=env,
    )
    acked = 0
    try:
        assert proc.stdout is not None
        assert proc.stdout.readline().strip() == b"ready"
        deadline = time.monotonic() + 10
        while acked < 20 and time.monotonic() < deadline:
            line = proc.stdout.readline().strip()
            if line.startswith(b"acked "):
                acked = int(line.split()[1])
        assert acked >= 20, "child never reached 20 acked commits"
        proc.send_signal(signal.SIGKILL)  # mid-commit, whatever it was doing
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
            proc.wait()

    # acked commits are durable; the torn tail (if any) is discarded; the
    # recovered state is the deterministic workload's state at its version
    deltas_by_seq = [
        [AddNode(k), AddEdge(0, sym(f"L{k}"), k), AddEdge(k, string(f"v{k}"), k)]
        for k in range(1, 10_000)
    ]
    with VersionedGraphStore(directory, durable=False) as recovered:
        version = recovered.version
        assert version >= acked, f"acked commit lost: v{version} < acked {acked}"
        expected = shadow_at(version, deltas_by_seq)
        assert same_state(recovered.graph, expected)
        assert dump(recovered.view().frozen) == dump(freeze(expected))
