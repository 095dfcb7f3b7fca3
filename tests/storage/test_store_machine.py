"""The store as a state machine: commits, pinned views, folds, crashes, reopens.

Hypothesis drives one store directory through any interleaving of

* ``commit`` -- batches shaped like ``test_derived_views.COMMITS``
  (fresh nodes, skipped ids, edges between old and new nodes, re-roots),
  synced or left for a later group fsync;
* ``view`` -- a reader pins the current snapshot;
* ``checkpoint`` -- the log folds into a fresh checkpoint;
* ``crash`` -- one of ``test_mvcc_recovery.CRASH_POINTS`` fires on a
  commit or the fold after it, and the process is presumed dead;
* ``reopen`` -- a clean close, then recovery.

The model is the deltas of every version written (a shadow ``Graph`` per
version) plus the newest acknowledged version.  After every reopen the
recovered store sits between the acked and the written version, serves
exactly the shadow at that version, and allocates the shadow's next id;
a pinned view dumps the same at every step, whatever came after it.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.frozen import freeze
from repro.resilience import FaultInjector
from repro.resilience.errors import InjectedFault
from repro.storage import AddEdge, AddNode, SetRoot, VersionedGraphStore

from .test_derived_views import COMMITS, apply_commit, bases, commit_both, dump
from .test_mvcc_recovery import (
    CRASH_POINTS,
    assert_prefix_consistent,
    base_graph,
    shadow_at,
)

#: the crash points that fire inside a fold, after its commit succeeded
FOLD_POINTS = ("checkpoint:begin", "checkpoint:write", "wal:truncate")


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.directory = Path(self._tmp.name) / "store"
        self.injector = FaultInjector(seed=0)
        self.store = VersionedGraphStore.create(
            self.directory, base_graph(), durable=True, injector=self.injector
        )
        self.deltas_by_seq: list[list] = []  # commit k's deltas at k - 1
        self.shadow = base_graph()
        self.acked = 0
        self.pinned: list[tuple] = []  # (view, its dump when pinned)

    # -- the model ---------------------------------------------------------------

    def _writer(self, *, sync: bool) -> SimpleNamespace:
        """The store as ``apply_commit`` and ``commit_both`` see it: each
        commit's deltas are recorded as the next version before the store
        sees them, since a crash may leave them written."""

        def commit(deltas: list) -> None:
            self.deltas_by_seq.append(deltas)
            self.store.commit(deltas, sync=sync)
            if sync:
                self.acked = self.store.version

        return SimpleNamespace(commit=commit)

    def _recover(self, *, written: int) -> None:
        """The process is gone: check every recovery invariant on the
        directory, then carry on in a freshly opened store."""
        version = assert_prefix_consistent(
            self.directory,
            acked=self.acked,
            written=written,
            deltas_by_seq=self.deltas_by_seq,
        )
        del self.deltas_by_seq[version:]
        self.shadow = shadow_at(version, self.deltas_by_seq)
        self.acked = version
        self.injector.outages = frozenset()
        self.store = VersionedGraphStore(
            self.directory, durable=True, injector=self.injector
        )
        assert self.store.version == version
        assert self.store.batch().new_node() == self.shadow._next_id

    # -- rules ---------------------------------------------------------------------

    @initialize(base=bases())
    def first_commit(self, base) -> None:
        """A drawn base graph (dense, or with skipped ids) as commit 1."""
        deltas: list = [AddNode(node) for node in base.nodes() if node != 0]
        deltas += [AddEdge(e.src, e.label, e.dst) for e in base.edges()]
        commit_both(self._writer(sync=True), self.shadow, [*deltas, SetRoot(base.root)])

    @rule(commits=COMMITS, sync=st.booleans())
    def commit(self, commits, sync) -> None:
        for commit in commits:
            apply_commit(self._writer(sync=sync), self.shadow, commit)

    @rule()
    def view(self) -> None:
        view = self.store.view()
        assert view.version == self.store.version
        pinned = dump(view.frozen)
        assert pinned == dump(freeze(self.shadow))
        self.pinned = [*self.pinned[-2:], (view, pinned)]

    @rule()
    def checkpoint(self) -> None:
        self.store.checkpoint()
        self.acked = self.store.version

    @rule(key=st.sampled_from(CRASH_POINTS), commits=COMMITS, sync=st.booleans())
    def crash(self, key, commits, sync) -> None:
        """Commit all but the last batch, then crash at ``key`` in the
        last one or in the fold after it."""
        self.commit(commits[:-1], sync)
        before = self.store.version
        self.injector.outages = frozenset({key})
        try:
            if key in FOLD_POINTS:
                apply_commit(self._writer(sync=sync), self.shadow, commits[-1])
                self.store.checkpoint()
            else:  # synced, so the fsync runs
                apply_commit(self._writer(sync=True), self.shadow, commits[-1])
        except InjectedFault:
            pass
        else:  # pragma: no cover - every armed point fires
            raise AssertionError(f"{key} never fired")
        finally:
            self.store.close()
        if key in ("wal:append", "wal:append-torn"):
            written = before  # the frame never (fully) landed
        else:
            written = before + 1
            if key == "wal:truncate":
                self.acked = written  # the checkpoint landed first
        self._recover(written=written)

    @rule()
    def reopen(self) -> None:
        self.store.close()
        self._recover(written=self.store.version)

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def pinned_views_never_change(self) -> None:
        for view, pinned in self.pinned:
            assert dump(view.frozen) == pinned

    def teardown(self) -> None:
        self.store.close()
        self._tmp.cleanup()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
