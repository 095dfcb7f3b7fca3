"""MVCC over the rooted graph: versioned snapshots above a write-ahead log.

The read side of the repo was built frozen-first: queries run against
immutable :class:`~repro.core.frozen.FrozenGraph` snapshots.
:class:`VersionedGraphStore` keeps that reader invariant and adds a
write path underneath it, with one representation of the graph: the
newest snapshot built, plus the deltas committed since it.

* **writers** stage typed deltas in a :class:`WriteBatch` and commit
  them through the :class:`~repro.storage.wal.WriteAheadLog` --
  durability is one group fsync, not one whole-graph rewrite.  A commit
  is validated against that snapshot plus the deltas since, and costs
  what it changes: nothing is derived until someone reads;
* **readers** pin a :class:`SnapshotView` (an immutable frozen snapshot
  tagged with the commit sequence it reflects); a view, once handed
  out, never changes -- concurrent commits produce *new* versions;
* **publication** is a :meth:`~repro.core.frozen.FrozenGraph.derive`
  of the snapshot plus the deltas since (version *n* is never mutated),
  which becomes the next snapshot; its ``_ext`` residents that can
  ``advance`` (the SQL image, the probe index) are carried over;
* **checkpoints** periodically fold the log into one crash-safe
  full-state file (rename-atomic via ``atomic_write_bytes``), bounding
  recovery time.  The fold encodes the snapshot's flat arrays and keeps
  the snapshot; opening decodes the file straight into one, and the WAL
  tail becomes the deltas since it.

Version ids *are* commit sequence numbers: version ``n`` is the state
after commit ``n``, version ``0`` the checkpointed (or empty) base.

Crash model: any exception out of the commit path (including an
:class:`~repro.resilience.errors.InjectedFault` from a seeded crash
point) leaves the store object dead -- the process is presumed gone.
Reopen the directory; recovery replays the checkpoint plus the durable
WAL prefix, record by record, each validated whole, discarding any torn
tail.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..core.frozen import PER_VERSION_RESIDENTS, FrozenGraph, _fill, _runs, freeze
from ..core.graph import Graph, GraphError
from ..core.labels import Label, label_of, sym
from .serializer import (
    STORAGE_METRICS,
    SerializationError,
    _read_labels,
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
    rewrite_wal,
)

__all__ = [
    "VersionedGraphStore",
    "WriteBatch",
    "SnapshotView",
    "RecoveryReport",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"SSDV"
#: checkpoint vector typecodes, narrowest first
_WIDTHS = "BHIQ"

CHECKPOINT_NAME = "checkpoint.ssdc"
WAL_NAME = "wal.ssdw"

_VIEWS_FROZEN = STORAGE_METRICS.counter("mvcc_views_frozen")
_VIEWS_DERIVED = STORAGE_METRICS.counter("mvcc_views_derived")


# -- checkpoint codec ---------------------------------------------------------
#
# The SSD1 wire format renumbers reachable nodes densely -- correct for
# interchange, fatal for a checkpoint: WAL deltas after the checkpoint
# reference the writer's *original* ids.  The checkpoint is instead the
# snapshot's own vectors, ids and label ids as they stand: next id,
# root + 1 (0: none), the labels (SSD1 dialect) in label-id order, the
# node ids (flag 0 and a count when ``id == position``, else flag 1 and
# a vector), then ``offsets``, ``targets`` and ``label_ids``.  A vector
# is a typecode, a length and little-endian items at the narrowest width
# that holds its maximum.  The file is that payload behind a header:
# magic, commit seq, payload CRC (docs/DURABILITY.md).


def _write_vector(out: bytearray, items: "Sequence[int]") -> None:
    top = max(items, default=0)
    code = next((c for c in _WIDTHS if top >> 8 * array(c).itemsize == 0), None)
    if code is None:
        raise SerializationError(f"checkpoint item {top} does not fit in 64 bits")
    vec = array(code, items)
    if sys.byteorder == "big":
        vec.byteswap()
    out.append(ord(code))
    _write_varint(out, len(vec))
    out += vec


def _read_vector(payload: bytes, pos: int, wide: bool = False) -> tuple[array, int]:
    """The vector at ``pos``: at its on-disk width, or (``wide``) as a
    ``q`` vector whose lanes are filled by one slice assignment per byte
    of the on-disk item."""
    code = chr(payload[pos]) if pos < len(payload) else "?"
    if code not in _WIDTHS:
        raise SerializationError(f"checkpoint vector has unknown typecode {code!r}")
    length, pos = _read_varint(payload, pos + 1)
    width = array(code).itemsize
    end = pos + length * width
    if end > len(payload):
        raise SerializationError("checkpoint vector runs past the payload")
    raw = payload[pos:end]
    if wide:
        if width == 8 and length and max(raw[7::8]) > 0x7F:
            raise SerializationError("checkpoint item past 2**63")
        lanes = bytearray(8 * length)
        for lane in range(width):
            lanes[lane::8] = raw[lane::width]
        code, raw = "q", lanes
    vec = array(code)
    vec.frombytes(raw)
    if sys.byteorder == "big":
        vec.byteswap()
    return vec, end


def _encode_state(fg: FrozenGraph, next_id: int, seq: int) -> bytearray:
    """The checkpoint file for ``fg`` at commit ``seq``, header and
    payload in one buffer."""
    out = bytearray(16)  # the header, once the payload's CRC is known
    _write_varint(out, next_id)
    _write_varint(out, 0 if fg._root is None else fg._root + 1)
    _write_varint(out, len(fg.labels_seq))
    for label in fg.labels_seq:
        _write_label(out, label)
    if fg.index is None:
        out.append(0)
        _write_varint(out, fg.num_nodes)
    else:
        out.append(1)
        _write_vector(out, fg.node_ids)
    for vec in (fg.offsets, fg.targets, fg.label_ids):
        _write_vector(out, vec)
    crc = zlib.crc32(memoryview(out)[16:])
    out[:16] = CHECKPOINT_MAGIC + seq.to_bytes(8, "big") + crc.to_bytes(4, "big")
    return out


def _decode_state(payload: bytes, version: int) -> tuple[FrozenGraph, int]:
    """The checkpointed snapshot, its vectors copied in bulk, and the next
    free node id; anything inconsistent is a :class:`SerializationError`."""
    next_id, pos = _read_varint(payload, 0)
    root_plus1, pos = _read_varint(payload, pos)
    num_labels, pos = _read_varint(payload, pos)
    labels_seq, pos = _read_labels(payload, pos, num_labels)
    label_index = dict(zip(labels_seq, range(num_labels)))
    if pos >= len(payload) or payload[pos] > 1:
        raise SerializationError("checkpoint has no node id layout")
    if payload[pos] == 0:
        n, pos = _read_varint(payload, pos + 1)
        node_ids: "range | array" = range(n)
    else:
        node_ids, pos = _read_vector(payload, pos + 1)
        n = len(node_ids)
    offsets, pos = _read_vector(payload, pos, wide=True)
    targets, pos = _read_vector(payload, pos, wide=True)
    label_ids, pos = _read_vector(payload, pos, wide=True)
    if pos != len(payload):
        raise SerializationError("checkpoint has trailing bytes")
    if len(label_index) != num_labels:
        raise SerializationError("checkpoint repeats a label")
    m = len(targets)
    if len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != m or len(label_ids) != m:
        raise SerializationError("checkpoint vectors disagree in length")
    bounds = offsets.tolist()
    if bounds != sorted(bounds):
        raise SerializationError("checkpoint offsets decrease")
    if m and max(label_ids) >= num_labels:
        raise SerializationError("checkpoint label id past its label table")
    # a snapshot's edges only join node ids below 2**63: the targets'
    # wide read refuses the rest, and a source is an id with a block
    if n and max(node_ids) >> 63 and any(
        node >> 63 and lo < hi for node, lo, hi in zip(node_ids, bounds, bounds[1:])
    ):
        raise SerializationError("checkpoint edge at a node id past 2**63")
    root = root_plus1 - 1 if root_plus1 else None
    fg = object.__new__(FrozenGraph)
    _fill(fg, node_ids, offsets, targets, label_ids, labels_seq, label_index,
          _runs(bounds, label_ids), root, version)
    index = fg.index
    if index is not None and len(index) != n:
        raise SerializationError("checkpoint repeats a node id")
    if m and not (max(targets) < n if index is None else index.keys() >= set(targets)):
        raise SerializationError("checkpoint edge points outside its nodes")
    if root is not None and not fg.has_node(root):
        raise SerializationError(f"checkpoint root {root} is not a node")
    if n and next_id <= (n - 1 if index is None else max(node_ids)):
        raise SerializationError(f"checkpoint next id {next_id} is not past every node")
    return fg, next_id


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
    reproduces the same ids.  Staging checks each reference as it is
    made; the commit validates the whole batch again, because another
    batch may have committed in between.
    """

    def __init__(self, store: "VersionedGraphStore") -> None:
        self._store = store
        self._deltas: list[Delta] = []
        self._next = store._next_id
        self._fresh: set[int] = set()

    def _known(self, node: int) -> bool:
        return node in self._fresh or self._store._known(node)

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

    The state is ``_base``, the newest snapshot built, plus what was
    committed after it: the edges ``_since`` and the node ids ``_added``
    (in commit order), and plain counters for the next free id, the
    root and the sizes.

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
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._durable = durable
        self._injector = injector
        self._checkpoint_every = checkpoint_every
        self._closed = False

        base, base_seq, self._next_id = self._load_checkpoint()
        _VIEWS_FROZEN.inc()
        self._base: FrozenGraph = base
        self._since: list[AddEdge] = []
        self._added: dict[int, None] = {}
        self._root = base._root
        self._num_nodes, self._num_edges = base.num_nodes, base.num_edges
        self._view: SnapshotView | None = None
        replay = WriteAheadLog.replay(self._wal_path, base_seq=base_seq)
        replayed = 0
        discarded_records = replay.discarded_records
        for record in replay.records:
            try:
                self._validate(record.deltas)
            except GraphError:
                # a semantically inconsistent record: stop at the last
                # good prefix, same as a torn tail; none of it applies
                discarded_records += len(replay.records) - replayed
                break
            self._apply(record.deltas)
            replayed += 1
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
        blob = _encode_state(freeze(graph), graph._next_id, 0)
        atomic_write_bytes(ckpt, blob, fsync=kwargs.get("durable", True))
        return cls(directory, **kwargs)

    def _load_checkpoint(self) -> tuple[FrozenGraph, int, int]:
        path = self._checkpoint_path
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return FrozenGraph.from_edge_stream(0, (), root=None), 0, 0
        if raw[:4] == b"SSDC":
            raise SerializationError(f"checkpoint {path} is in the retired per-edge SSDC format")
        if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 16:
            raise SerializationError(f"corrupt checkpoint {path}: bad header")
        seq = int.from_bytes(raw[4:12], "big")
        payload = raw[16:]
        if zlib.crc32(payload) != int.from_bytes(raw[12:16], "big"):
            raise SerializationError(f"corrupt checkpoint {path}: CRC mismatch")
        fg, next_id = _decode_state(payload, seq)
        return fg, seq, next_id

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
        self._apply(deltas)
        if self._view is not None:
            # the retired snapshot's per-version resident (the SQL
            # image) points back at it; detached, its last reader
            # frees it by reference count, and a straggler rebuilds what
            # it needs.  The rest (the probe index) wait for the next view
            for key in PER_VERSION_RESIDENTS:
                self._base._ext.pop(key, None)
            self._view = None
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

    def _known(self, node: int) -> bool:
        return node in self._added or self._base.has_node(node)

    def _validate(self, deltas: "Sequence[Delta]") -> None:
        """Refuse a commit (or a replayed record) that cannot apply whole.

        A delta that cannot apply must never reach the log, and recovery
        stops at the first record that fails here.  A node is known if
        the snapshot has it, a commit since added it, or this one does;
        new ids must be fresh, since two batches opened at one version
        allocate the same ones.
        """
        next_id = self._next_id
        pending: set[int] = set()

        def known(node: int) -> bool:
            return node in pending or self._known(node)

        for delta in deltas:
            kind = type(delta)
            if kind is AddNode:
                if delta.node < next_id or delta.node in pending:
                    raise GraphError(f"node {delta.node} is not a fresh id (next is {next_id})")
                pending.add(delta.node)
            elif kind is AddEdge:
                if not known(delta.src):
                    raise GraphError(f"unknown source node {delta.src}")
                if not known(delta.dst):
                    raise GraphError(f"unknown destination node {delta.dst}")
                if not isinstance(delta.label, Label):
                    raise GraphError(f"edge label must be a Label, got {delta.label!r}")
            elif kind is SetRoot:
                if not known(delta.node):
                    raise GraphError(f"cannot root graph at unknown node {delta.node}")
            else:
                raise GraphError(f"unknown delta {delta!r}")

    def _apply(self, deltas: "Sequence[Delta]") -> None:
        """Record validated deltas as committed since the snapshot."""
        for delta in deltas:
            kind = type(delta)
            if kind is AddEdge:
                self._since.append(delta)
                self._num_edges += 1
            elif kind is AddNode:
                self._added[delta.node] = None
                self._next_id = max(self._next_id, delta.node + 1)
                self._num_nodes += 1
            else:
                self._root = delta.node

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the log into one atomic full-state file, then reset it.

        Two independently crash-safe steps: the checkpoint write is
        rename-atomic, and the WAL reset is rename-atomic.  A crash
        between them leaves a new checkpoint plus a stale log -- replay
        skips records at or below the checkpoint's sequence, so the
        combination is still exactly one state.  The snapshot encoded
        stays the store's, residents and all.
        """
        if self._closed:
            raise ValueError("store is closed")
        self._crash_point("checkpoint:begin")
        blob = _encode_state(self._current(), self._next_id, self._version)
        self._crash_point("checkpoint:write")
        atomic_write_bytes(self._checkpoint_path, blob, fsync=self._durable)
        self._checkpoint_seq = self._version
        self._acked_seq = self._version
        self._wal.truncate(durable=self._durable)
        STORAGE_METRICS.counter("checkpoints").inc()

    # -- the read path ---------------------------------------------------------

    @property
    def graph(self) -> FrozenGraph:
        """The current version's snapshot (``view().frozen``)."""
        return self.view().frozen

    @property
    def version(self) -> int:
        return self._version

    @property
    def acked_version(self) -> int:
        """The newest version acknowledged durable (== version after sync)."""
        return self._acked_seq

    def view(self) -> SnapshotView:
        """The current version's pinned read view (cached per version).

        Every reader at this version shares it.  Older views stay valid
        for as long as their holders keep them -- a derivation never
        mutates a snapshot.
        """
        v = self._view
        if v is None:
            v = self._view = SnapshotView(self._current(), self._version)
        return v

    def _current(self) -> FrozenGraph:
        """The snapshot at the current version: the base when nothing was
        committed since it, else its derivation, which becomes the base."""
        base, edges = self._base, self._since
        if edges or self._added or self._root != base._root:
            _VIEWS_DERIVED.inc()
            fg = base.derive(list(self._added), edges, self._root, self._version)
            # the residents that advance take the delta (a straggler
            # may have rebuilt a per-version one on the base since);
            # what is left points back at the old base, and detached,
            # its last reader frees it by reference count
            for key, resident in base._ext.items():
                if key not in PER_VERSION_RESIDENTS:
                    carried = resident.advance(fg, edges)
                    if carried is not None:
                        fg._ext[key] = carried
            base._ext.clear()
            self._base, self._since, self._added = fg, [], {}
        return self._base

    @property
    def cached_view(self) -> "SnapshotView | None":
        """The current version's view if a reader already asked for it."""
        return self._view

    # -- bookkeeping -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "version": self._version,
            "acked_version": self._acked_seq,
            "checkpoint_seq": self._checkpoint_seq,
            "wal_bytes": self._wal.size_bytes if not self._closed else 0,
            "nodes": self._num_nodes,
            "edges": self._num_edges,
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
