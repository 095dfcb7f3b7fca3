"""MVCC over the rooted graph: versioned snapshots above a write-ahead log.

The read side of the repo was built frozen-first: queries run against
immutable :class:`~repro.core.frozen.FrozenGraph` snapshots, indexes
snapshot the graph at construction, and any mutation invalidated the
world.  :class:`VersionedGraphStore` keeps those reader invariants and
adds a write path underneath them:

* **writers** stage typed deltas in a :class:`WriteBatch` and commit
  them through the :class:`~repro.storage.wal.WriteAheadLog` --
  durability is one group fsync, not one whole-graph rewrite;
* **readers** pin a :class:`SnapshotView` (an immutable frozen snapshot
  tagged with the commit sequence it reflects); a view, once handed
  out, never changes -- concurrent commits produce *new* versions;
* **indexes** (label/path/text/value) and the lazy DataGuide are
  maintained incrementally from the committed edge deltas, so a write
  costs proportional-to-the-delta index work instead of
  rebuild-on-stale;
* **checkpoints** periodically fold the log into one crash-safe
  full-state file (rename-atomic via ``atomic_write_bytes``), bounding
  recovery time;
* **publication** costs what the commits changed: only the first view
  is a ``freeze()``.  A commit retires the current snapshot as the
  *derivation base*; the next view is its
  :meth:`~repro.core.frozen.FrozenGraph.derive` plus the deltas since
  (version *n* is never mutated), and the base's ``_ext`` residents that
  can ``advance`` (the SQL image, the probe index) are carried over.

Version ids *are* commit sequence numbers: version ``n`` is the state
after commit ``n``, version ``0`` the checkpointed (or empty) base.

Crash model: any exception out of the commit path (including an
:class:`~repro.resilience.errors.InjectedFault` from a seeded crash
point) leaves the store object dead -- the process is presumed gone.
Reopen the directory; recovery replays the checkpoint plus the durable
WAL prefix, record by record, discarding any torn tail.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..core.frozen import PER_VERSION_RESIDENTS, FrozenGraph, freeze
from ..core.graph import Edge, Graph, GraphError
from ..core.labels import Label, label_of, sym
from ..index import GraphIndexes
from ..schema.dataguide import DataGuide
from .serializer import (
    STORAGE_METRICS,
    SerializationError,
    _read_label,
    _read_varint,
    _write_label,
    _write_varint,
)
from .store import atomic_write_bytes
from .wal import (
    AddEdge,
    AddNode,
    Delta,
    SetRoot,
    WriteAheadLog,
    apply_delta,
    rewrite_wal,
)

__all__ = [
    "VersionedGraphStore",
    "WriteBatch",
    "SnapshotView",
    "RecoveryReport",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"SSDC"

CHECKPOINT_NAME = "checkpoint.ssdc"
WAL_NAME = "wal.ssdw"

_VIEWS_FROZEN = STORAGE_METRICS.counter("mvcc_views_frozen")
_VIEWS_DERIVED = STORAGE_METRICS.counter("mvcc_views_derived")


# -- checkpoint codec ---------------------------------------------------------
#
# The SSD1 wire format renumbers reachable nodes densely -- correct for
# interchange, fatal for a checkpoint: WAL deltas after the checkpoint
# reference the writer's *original* ids.  The checkpoint therefore uses
# its own id-preserving encoding (same varint/label primitives).


def _encode_state(graph: Graph) -> bytes:
    out = bytearray()
    _write_varint(out, graph._next_id)
    _write_varint(out, 0 if graph._root is None else graph._root + 1)
    _write_varint(out, len(graph._adj))
    for node, edges in graph._adj.items():
        _write_varint(out, node)
        _write_varint(out, len(edges))
        for edge in edges:
            _write_label(out, edge.label)
            _write_varint(out, edge.dst)
    return bytes(out)


def _decode_state(payload: bytes) -> Graph:
    graph = Graph()
    next_id, pos = _read_varint(payload, 0)
    root_plus1, pos = _read_varint(payload, pos)
    num_nodes, pos = _read_varint(payload, pos)
    records: list[tuple[int, list[tuple[Label, int]]]] = []
    for _ in range(num_nodes):
        node, pos = _read_varint(payload, pos)
        degree, pos = _read_varint(payload, pos)
        edges: list[tuple[Label, int]] = []
        for _ in range(degree):
            label, pos = _read_label(payload, pos)
            dst, pos = _read_varint(payload, pos)
            edges.append((label, dst))
        records.append((node, edges))
        graph.ensure_node(node)
    if pos != len(payload):
        raise SerializationError("checkpoint has trailing bytes")
    for node, edges in records:
        for label, dst in edges:
            graph.add_edge(node, label, dst)
    if root_plus1:
        graph.set_root(root_plus1 - 1)
    graph._next_id = max(graph._next_id, next_id)
    return graph


@dataclass(frozen=True)
class RecoveryReport:
    """What opening a store directory found and did."""

    checkpoint_seq: int
    replayed_records: int
    discarded_bytes: int
    discarded_records: int
    commit_seq: int


class SnapshotView:
    """An immutable, version-pinned read view of the store.

    ``frozen`` is the CSR snapshot, and the only thing a version
    publishes: every engine reads it in place.  ``oem`` is that same
    snapshot under the OEM read protocol (for Lorel), an
    :class:`~repro.core.convert.OemView` that decodes objects per
    touched node -- not a copy.  Neither can be torn by a concurrent
    commit: a commit produces a *new* snapshot.
    """

    __slots__ = ("frozen", "version", "_oem")

    def __init__(self, frozen: FrozenGraph, version: int) -> None:
        self.frozen = frozen
        self.version = version
        self._oem = None

    @property
    def oem(self):
        if self._oem is None:
            from ..core.convert import OemView

            self._oem = OemView(self.frozen)
        return self._oem

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SnapshotView v{self.version} {self.frozen!r}>"


class WriteBatch:
    """Stages deltas against a store; nothing is visible until commit.

    Node ids are allocated eagerly (so edges within the batch can
    reference them) but recorded as :class:`AddNode` deltas -- replay
    reproduces the same ids.  Validation happens at staging time: a
    batch that commits was already structurally sound, which is what
    lets recovery apply WAL records unconditionally.
    """

    def __init__(self, store: "VersionedGraphStore") -> None:
        self._store = store
        self._deltas: list[Delta] = []
        self._next = store._graph._next_id
        self._fresh: set[int] = set()

    def _known(self, node: int) -> bool:
        return node in self._fresh or self._store._graph.has_node(node)

    def new_node(self) -> int:
        node = self._next
        self._next += 1
        self._fresh.add(node)
        self._deltas.append(AddNode(node))
        return node

    def add_edge(self, src: int, label: "Label | str | int | float | bool", dst: int) -> None:
        if not self._known(src):
            raise GraphError(f"unknown source node {src}")
        if not self._known(dst):
            raise GraphError(f"unknown destination node {dst}")
        lab = sym(label) if isinstance(label, str) else label_of(label)
        self._deltas.append(AddEdge(src, lab, dst))

    def set_root(self, node: int) -> None:
        if not self._known(node):
            raise GraphError(f"cannot root graph at unknown node {node}")
        self._deltas.append(SetRoot(node))

    def __len__(self) -> int:
        return len(self._deltas)

    def commit(self, *, sync: bool = True) -> int:
        """Apply the batch; returns the new version (its commit seq)."""
        deltas, self._deltas = self._deltas, []
        self._fresh = set()
        return self._store.commit(deltas, sync=sync)


class VersionedGraphStore:
    """A durable, versioned graph: checkpoint + WAL + pinned snapshots.

    ``checkpoint_every`` (commits) bounds the delta chain: when the log
    grows past it, the store folds everything into a fresh checkpoint
    automatically.  ``durable=False`` skips fsyncs (tests and benches
    that measure pure CPU cost); atomicity is unaffected.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        durable: bool = True,
        injector=None,
        checkpoint_every: "int | None" = 1024,
        path_depth: int = 4,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._durable = durable
        self._injector = injector
        self._checkpoint_every = checkpoint_every
        self._path_depth = path_depth
        self._closed = False

        graph, base_seq = self._load_checkpoint()
        replay = WriteAheadLog.replay(self._wal_path, base_seq=base_seq)
        replayed = 0
        discarded_records = replay.discarded_records
        for record in replay.records:
            try:
                for delta in record.deltas:
                    apply_delta(graph, delta)
            except GraphError:
                # a semantically inconsistent record: stop at the last
                # good prefix, same as a torn tail
                discarded_records += len(replay.records) - replayed
                break
            replayed += 1
        self._graph = graph
        self._checkpoint_seq = base_seq
        self._version = base_seq + replayed
        self._acked_seq = self._version
        self.recovery = RecoveryReport(
            checkpoint_seq=base_seq,
            replayed_records=replayed,
            discarded_bytes=replay.discarded_bytes,
            discarded_records=discarded_records,
            commit_seq=self._version,
        )
        if replay.discarded_bytes or discarded_records:
            STORAGE_METRICS.counter("wal_torn_tail_discards").inc()
            # the log reopens in append mode: without this rewrite the
            # next commit would land after the debris, where replay can
            # never reach it, and acked writes would vanish at the next
            # crash
            rewrite_wal(
                self._wal_path, replay.records[:replayed], fsync=durable
            )
        self._wal = WriteAheadLog(self._wal_path, injector=injector)
        self._visible: set[int] = (
            graph.reachable() if graph.has_root else set()
        )
        self._indexes: GraphIndexes | None = None
        self._guide: DataGuide | None = None
        self._view: SnapshotView | None = None
        # the next view's derivation base and the deltas since (recorded
        # only while there is a base; a checkpoint fold drops both)
        self._base: FrozenGraph | None = None
        self._since: list[Delta] = []

    # -- paths ----------------------------------------------------------------

    @property
    def _checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    @property
    def _wal_path(self) -> Path:
        return self.directory / WAL_NAME

    # -- bootstrap -------------------------------------------------------------

    @classmethod
    def create(
        cls, directory: "str | Path", graph: Graph, **kwargs
    ) -> "VersionedGraphStore":
        """Initialize a store directory from an existing graph.

        Writes checkpoint zero (the graph as-is, ids preserved) and
        opens the store over it.  Refuses to clobber an existing store.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        ckpt = directory / CHECKPOINT_NAME
        if ckpt.exists() or (directory / WAL_NAME).exists():
            raise FileExistsError(f"{directory} already holds a store")
        payload = _encode_state(graph)
        blob = (
            CHECKPOINT_MAGIC
            + (0).to_bytes(8, "big")
            + zlib.crc32(payload).to_bytes(4, "big")
            + payload
        )
        atomic_write_bytes(ckpt, blob, fsync=kwargs.get("durable", True))
        return cls(directory, **kwargs)

    def _load_checkpoint(self) -> tuple[Graph, int]:
        try:
            raw = self._checkpoint_path.read_bytes()
        except FileNotFoundError:
            return Graph(), 0
        if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 16:
            raise SerializationError(
                f"corrupt checkpoint {self._checkpoint_path}: bad header"
            )
        seq = int.from_bytes(raw[4:12], "big")
        crc = int.from_bytes(raw[12:16], "big")
        payload = raw[16:]
        if zlib.crc32(payload) != crc:
            raise SerializationError(
                f"corrupt checkpoint {self._checkpoint_path}: CRC mismatch"
            )
        return _decode_state(payload), seq

    # -- crash points ----------------------------------------------------------

    def _crash_point(self, key: str) -> None:
        if self._injector is not None:
            self._injector.check(key)

    # -- the write path --------------------------------------------------------

    def batch(self) -> WriteBatch:
        return WriteBatch(self)

    def commit(self, deltas: "Sequence[Delta]", *, sync: bool = True) -> int:
        """Log then apply one commit; returns its version.

        WAL first (write-ahead), memory second: an exception between the
        two presumes the process dead, and recovery replays whatever
        prefix reached the disk.  ``sync=False`` defers the fsync to a
        later :meth:`sync` -- group commit; the version number is
        assigned now but only *acknowledged* durable at the sync.
        """
        if self._closed:
            raise ValueError("store is closed")
        deltas = list(deltas)
        self._validate(deltas)
        seq = self._version + 1
        self._wal.append(seq, deltas)
        self._version = seq
        if sync and self._durable:
            self.sync()
        elif not self._durable:
            self._acked_seq = seq
        self._ingest(deltas)
        if self._view is not None:
            # the retired snapshot's per-version residents (the planner)
            # point back at it; detached, its last reader frees it by
            # reference count, and a straggler rebuilds what it needs.
            # The rest (SQL image, probe index) wait for the next view
            base = self._view.frozen
            for key in PER_VERSION_RESIDENTS:
                base._ext.pop(key, None)
            self._base, self._since = base, []
            self._view = None
        if self._base is not None:
            self._since += deltas
        STORAGE_METRICS.counter("mvcc_commits").inc()
        if (
            self._checkpoint_every is not None
            and self._version - self._checkpoint_seq >= self._checkpoint_every
        ):
            self.checkpoint()
        return seq

    def sync(self) -> None:
        """Group-commit durability point: acknowledge everything written."""
        if self._version > self._acked_seq:
            self._wal.sync()
        self._acked_seq = self._version

    def _validate(self, deltas: "Iterable[Delta]") -> None:
        # a delta that cannot apply must never reach the log: recovery
        # applies records unconditionally.  Node ids must be fresh: two
        # batches opened at one version allocate the same ones
        adj = self._graph._adj
        next_id = self._graph._next_id
        pending: set[int] = set()
        for delta in deltas:
            if isinstance(delta, AddNode):
                if delta.node < next_id or delta.node in adj or delta.node in pending:
                    raise GraphError(f"node {delta.node} is not a fresh id (next is {next_id})")
                pending.add(delta.node)
            elif isinstance(delta, AddEdge):
                if delta.src not in adj and delta.src not in pending:
                    raise GraphError(f"unknown source node {delta.src}")
                if delta.dst not in adj and delta.dst not in pending:
                    raise GraphError(f"unknown destination node {delta.dst}")
                if not isinstance(delta.label, Label):
                    raise GraphError(f"edge label must be a Label, got {delta.label!r}")
            elif isinstance(delta, SetRoot):
                if delta.node not in adj and delta.node not in pending:
                    raise GraphError(f"cannot root graph at unknown node {delta.node}")
            else:
                raise GraphError(f"unknown delta {delta!r}")

    def _ingest(self, deltas: "Sequence[Delta]") -> None:
        """Apply deltas to the live graph and maintain derived state."""
        graph = self._graph
        visible = self._visible
        new_edges: list[Edge] = []
        root_changed = False
        for delta in deltas:
            if isinstance(delta, AddEdge):
                edge = graph.add_edge(delta.src, delta.label, delta.dst)
                if edge.src in visible:
                    new_edges.append(edge)
                    if edge.dst not in visible:
                        # the edge opened a new region: everything below
                        # it becomes visible, and each newly visible
                        # node's out-edges enter the indexes
                        visible.add(edge.dst)
                        stack = [edge.dst]
                        while stack:
                            node = stack.pop()
                            for e in graph.edges_from(node):
                                new_edges.append(e)
                                if e.dst not in visible:
                                    visible.add(e.dst)
                                    stack.append(e.dst)
            elif isinstance(delta, SetRoot):
                graph.set_root(delta.node)
                root_changed = True
            else:
                apply_delta(graph, delta)
        if root_changed:
            # non-monotone: visibility (and every derived structure)
            # restarts from the new root
            self._visible = graph.reachable() if graph.has_root else set()
            if self._indexes is not None:
                self._indexes.refresh()
            self._guide = None
        else:
            if self._indexes is not None:
                self._indexes.apply_delta(new_edges)
            if self._guide is not None and new_edges:
                self._guide.refresh(new_edges)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the log into one atomic full-state file, then reset it.

        Two independently crash-safe steps: the checkpoint write is
        rename-atomic, and the WAL reset is rename-atomic.  A crash
        between them leaves a new checkpoint plus a stale log -- replay
        skips records at or below the checkpoint's sequence, so the
        combination is still exactly one state.
        """
        if self._closed:
            raise ValueError("store is closed")
        self._crash_point("checkpoint:begin")
        payload = _encode_state(self._graph)
        blob = (
            CHECKPOINT_MAGIC
            + self._version.to_bytes(8, "big")
            + zlib.crc32(payload).to_bytes(4, "big")
            + payload
        )
        self._crash_point("checkpoint:write")
        atomic_write_bytes(self._checkpoint_path, blob, fsync=self._durable)
        self._checkpoint_seq = self._version
        self._acked_seq = self._version
        self._wal.truncate(durable=self._durable)
        self._drop_base()
        STORAGE_METRICS.counter("checkpoints").inc()

    # -- the read path ---------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The live (mutable) graph: the checkpoint merged with every
        committed delta.  Mutate it only through :meth:`commit`."""
        return self._graph

    @property
    def version(self) -> int:
        return self._version

    @property
    def acked_version(self) -> int:
        """The newest version acknowledged durable (== version after sync)."""
        return self._acked_seq

    def view(self) -> SnapshotView:
        """The current version's pinned read view (cached per version).

        Derived from the base plus the commits since it when there is
        one, frozen from the live graph otherwise; every reader at this
        version shares the result.  Older views stay valid for as long as
        their holders keep them -- neither path mutates a snapshot.
        """
        v = self._view
        if v is None:
            base, deltas = self._base, self._since
            if base is None:
                _VIEWS_FROZEN.inc()
                fg = freeze(self._graph)
            else:
                _VIEWS_DERIVED.inc()
                edges = [d for d in deltas if type(d) is AddEdge]
                nodes = [d.node for d in deltas if type(d) is AddNode]
                fg = base.derive(nodes, edges, self._graph._root, self._graph.version)
                # the residents that advance take the delta (a straggler
                # may have rebuilt a per-version one on the base since)
                for key, resident in base._ext.items():
                    if key not in PER_VERSION_RESIDENTS:
                        carried = resident.advance(fg, edges)
                        if carried is not None:
                            fg._ext[key] = carried
                self._drop_base()
            v = self._view = SnapshotView(fg, self._version)
        return v

    def _drop_base(self) -> None:
        """Forget the derivation base.  What is left in its ``_ext`` (the
        SQL image, anything a straggler rebuilt) points back at it;
        detached, its last reader frees it by reference count."""
        if self._base is not None:
            self._base._ext.clear()
            self._base, self._since = None, []

    @property
    def cached_view(self) -> "SnapshotView | None":
        """The current version's view if a reader already asked for it."""
        return self._view

    @property
    def indexes(self) -> GraphIndexes:
        """Incrementally maintained index bundle over the live graph."""
        if self._indexes is None:
            self._indexes = GraphIndexes(self._graph, path_depth=self._path_depth)
        return self._indexes

    @property
    def guide(self) -> DataGuide:
        """Incrementally maintained strong DataGuide of the live graph."""
        if self._guide is None:
            self._guide = DataGuide(self._graph)
        return self._guide

    # -- bookkeeping -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "version": self._version,
            "acked_version": self._acked_seq,
            "checkpoint_seq": self._checkpoint_seq,
            "wal_bytes": self._wal.size_bytes if not self._closed else 0,
            "nodes": self._graph.num_nodes,
            "edges": self._graph.num_edges,
            "recovery": {
                "checkpoint_seq": self.recovery.checkpoint_seq,
                "replayed_records": self.recovery.replayed_records,
                "discarded_bytes": self.recovery.discarded_bytes,
                "discarded_records": self.recovery.discarded_records,
            },
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "VersionedGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VersionedGraphStore {self.directory} v{self._version} "
            f"ckpt={self._checkpoint_seq}>"
        )
