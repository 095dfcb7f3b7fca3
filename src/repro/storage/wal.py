"""Write-ahead logging of typed graph deltas (the MVCC write path).

The paper's data is "irregular **and changing**"; this module is the
changing half.  Instead of re-serializing the whole graph per mutation
(the ~53x naive-durability overhead the storage bench measured), a
writer appends *deltas* -- ``AddNode``, ``AddEdge``, ``SetRoot`` -- to a
:class:`WriteAheadLog` and fsyncs once per *group* of commits: group
commit at delta granularity.

Format (all integers big-endian or LEB128 varints)::

    magic "SSDW"
    repeated records:
        4 bytes  frame length N
        4 bytes  CRC32 of the N payload bytes
        N bytes  payload := varint commit_seq
                            varint delta_count
                            repeated delta_count times:
                                'N' varint node
                              | 'E' varint src, label, varint dst
                              | 'R' varint node

Label encoding is the SSD1 serializer's own (one kind byte plus
payload), so the WAL and the checkpoint speak one label dialect.

Recovery invariants (docs/DURABILITY.md spells out the matrix):

* records are validated *individually* -- short frame, bad CRC, or an
  undecodable payload ends replay at that point (torn-tail discard);
* commit sequence numbers must be contiguous from the checkpoint's --
  a gap means an earlier record was lost, so everything at and after
  the gap is discarded too (prefix consistency, never a hole);
* a record is only acknowledged durable after :meth:`WriteAheadLog.sync`
  returns; recovery may legitimately *keep* unacknowledged trailing
  records that happened to reach the disk (they are complete and
  consistent -- the prefix property is about never losing acked data,
  not about forgetting valid tails).

Every open log registers in a module-level table so the test suite's
leak guard can assert no handle outlives its test (the same pattern as
``repro.core.shared.live_segments``).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from ..core.graph import Graph
from ..core.labels import Label
from .serializer import (
    STORAGE_METRICS,
    SerializationError,
    _read_label,
    _read_varint,
    _write_label,
    _write_varint,
)

__all__ = [
    "AddNode",
    "AddEdge",
    "SetRoot",
    "Delta",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
    "encode_deltas",
    "decode_deltas",
    "apply_delta",
    "live_wal_handles",
]

WAL_MAGIC = b"SSDW"

#: Upper bound on a single frame; a length field beyond this is corruption
#: (or an unframed read), never a legitimate record.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# -- typed deltas ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AddNode:
    """Materialize ``node`` (the id the writer's allocator handed out)."""

    node: int


@dataclass(frozen=True, slots=True)
class AddEdge:
    """Append ``src --label--> dst`` to the adjacency."""

    src: int
    label: Label
    dst: int


@dataclass(frozen=True, slots=True)
class SetRoot:
    """Re-root the graph at ``node`` (non-monotone: resets visibility)."""

    node: int


Delta = Union[AddNode, AddEdge, SetRoot]


def apply_delta(graph: Graph, delta: Delta) -> None:
    """Apply one delta to a mutable graph (a reference model of the store)."""
    if isinstance(delta, AddNode):
        graph.ensure_node(delta.node)
    elif isinstance(delta, AddEdge):
        graph.add_edge(delta.src, delta.label, delta.dst)
    elif isinstance(delta, SetRoot):
        graph.set_root(delta.node)
    else:  # pragma: no cover - type discipline
        raise TypeError(f"unknown delta {delta!r}")


# -- delta codec -------------------------------------------------------------


def encode_deltas(commit_seq: int, deltas: "Iterable[Delta]") -> bytes:
    """One record payload: the commit's sequence number plus its deltas."""
    deltas = list(deltas)
    out = bytearray()
    _write_varint(out, commit_seq)
    _write_varint(out, len(deltas))
    for delta in deltas:
        if isinstance(delta, AddNode):
            out += b"N"
            _write_varint(out, delta.node)
        elif isinstance(delta, AddEdge):
            out += b"E"
            _write_varint(out, delta.src)
            _write_label(out, delta.label)
            _write_varint(out, delta.dst)
        elif isinstance(delta, SetRoot):
            out += b"R"
            _write_varint(out, delta.node)
        else:
            raise SerializationError(f"cannot encode delta {delta!r}")
    return bytes(out)


def decode_deltas(payload: bytes) -> tuple[int, list[Delta]]:
    """Inverse of :func:`encode_deltas`; typed errors on any corruption."""
    commit_seq, pos = _read_varint(payload, 0)
    count, pos = _read_varint(payload, pos)
    deltas: list[Delta] = []
    for _ in range(count):
        if pos >= len(payload):
            raise SerializationError("truncated delta record")
        tag = payload[pos : pos + 1]
        pos += 1
        if tag == b"N":
            node, pos = _read_varint(payload, pos)
            deltas.append(AddNode(node))
        elif tag == b"E":
            src, pos = _read_varint(payload, pos)
            label, pos = _read_label(payload, pos)
            dst, pos = _read_varint(payload, pos)
            deltas.append(AddEdge(src, label, dst))
        elif tag == b"R":
            node, pos = _read_varint(payload, pos)
            deltas.append(SetRoot(node))
        else:
            raise SerializationError(f"unknown delta tag {tag!r}")
    if pos != len(payload):
        # trailing garbage inside a CRC-valid frame: semantically truncated
        raise SerializationError(
            f"delta record has {len(payload) - pos} trailing bytes"
        )
    return commit_seq, deltas


@dataclass(frozen=True)
class WalRecord:
    """One decoded commit: its sequence number and its deltas."""

    commit_seq: int
    deltas: tuple[Delta, ...]


@dataclass(frozen=True)
class WalReplay:
    """What :meth:`WriteAheadLog.replay` found on disk."""

    records: tuple[WalRecord, ...]
    #: bytes past the last valid record (torn tail, discarded)
    discarded_bytes: int
    #: complete-but-out-of-sequence records dropped for prefix consistency
    discarded_records: int


# -- leak accounting ----------------------------------------------------------

_LIVE_HANDLES: dict[int, str] = {}


def live_wal_handles() -> list[str]:
    """Paths of every WriteAheadLog not yet closed (the tests' leak guard)."""
    return sorted(_LIVE_HANDLES.values())


# -- the log ------------------------------------------------------------------


class WriteAheadLog:
    """An append-only, CRC-framed delta log with group-commit fsync.

    ``append`` stages a record in the OS page cache (cheap); ``sync``
    is the durability point -- one fsync acknowledges every record
    appended since the last one, which is group commit at delta
    granularity.  ``injector`` hooks a seedable
    :class:`~repro.resilience.FaultInjector` into the crash points
    (``wal:append``, ``wal:append-torn``, ``wal:fsync``,
    ``wal:truncate``) so the recovery sweep can simulate power loss at
    every boundary deterministically.
    """

    def __init__(self, path: "str | Path", *, injector=None) -> None:
        self.path = Path(path)
        self._injector = injector
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "ab")
        if fresh:
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
        self._closed = False
        _LIVE_HANDLES[id(self)] = str(self.path)

    # -- crash points ---------------------------------------------------------

    def _crash_point(self, key: str) -> None:
        if self._injector is not None:
            self._injector.check(key)

    # -- writing --------------------------------------------------------------

    def append(self, commit_seq: int, deltas: "Iterable[Delta]") -> int:
        """Frame and stage one commit record; returns its byte length.

        Not durable until :meth:`sync`.  The full frame is flushed to
        the OS before returning, so a later ``close()`` never has a
        half-record buffered in user space (crash simulation depends on
        the file holding exactly what the crash point left).
        """
        if self._closed:
            raise ValueError("write-ahead log is closed")
        self._crash_point("wal:append")
        payload = encode_deltas(commit_seq, deltas)
        frame = (
            len(payload).to_bytes(4, "big")
            + zlib.crc32(payload).to_bytes(4, "big")
            + payload
        )
        try:
            self._crash_point("wal:append-torn")
        except Exception:
            # power loss mid-write: half a frame reaches the disk
            self._fh.write(frame[: max(1, len(frame) // 2)])
            self._fh.flush()
            raise
        self._fh.write(frame)
        self._fh.flush()
        STORAGE_METRICS.counter("wal_appends").inc()
        return len(frame)

    def sync(self) -> None:
        """THE durability point: one fsync covers every staged record."""
        if self._closed:
            raise ValueError("write-ahead log is closed")
        self._crash_point("wal:fsync")
        os.fsync(self._fh.fileno())
        STORAGE_METRICS.counter("fsyncs").inc()
        STORAGE_METRICS.counter("wal_syncs").inc()

    def truncate(self, *, durable: bool = True) -> None:
        """Reset the log to an empty header (after a checkpoint swallowed it).

        Rename-atomic: a crash during truncation leaves either the old
        log (recovery skips records at or below the checkpoint's
        sequence) or the new empty one -- never a prefix.
        """
        from .store import atomic_write_bytes  # local: store imports nothing from here

        if self._closed:
            raise ValueError("write-ahead log is closed")
        self._crash_point("wal:truncate")
        self._fh.close()
        try:
            atomic_write_bytes(self.path, WAL_MAGIC, fsync=durable)
        finally:
            self._fh = open(self.path, "ab")

    @property
    def size_bytes(self) -> int:
        self._fh.flush()
        return self.path.stat().st_size

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()
            _LIVE_HANDLES.pop(id(self), None)

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recovery -------------------------------------------------------------

    @classmethod
    def replay(cls, path: "str | Path", *, base_seq: int = 0) -> WalReplay:
        """Decode every durable record after ``base_seq``, record by record.

        Tolerates a missing file (an empty log) and any torn tail.  The
        returned records are contiguous starting at ``base_seq + 1``;
        records at or below ``base_seq`` were compacted into the
        checkpoint already and are skipped silently.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return WalReplay((), 0, 0)
        if raw[:4] != WAL_MAGIC:
            # the whole file is noise -- treat as a torn header
            return WalReplay((), len(raw), 0)
        records: list[WalRecord] = []
        discarded_records = 0
        pos = 4
        expected = base_seq + 1
        while pos < len(raw):
            start = pos
            if pos + 8 > len(raw):
                break  # torn frame header
            length = int.from_bytes(raw[pos : pos + 4], "big")
            crc = int.from_bytes(raw[pos + 4 : pos + 8], "big")
            pos += 8
            if length > MAX_FRAME_BYTES or pos + length > len(raw):
                pos = start
                break  # torn payload
            payload = raw[pos : pos + length]
            pos += length
            if zlib.crc32(payload) != crc:
                pos = start
                break  # bit rot / torn write inside the frame
            try:
                commit_seq, deltas = decode_deltas(payload)
            except SerializationError:
                pos = start
                break  # CRC-valid but semantically truncated
            if commit_seq < expected:
                continue  # already folded into the checkpoint
            if commit_seq != expected:
                # a gap: everything from here on is past lost data
                discarded_records += 1 + _count_remaining(raw, pos)
                pos = len(raw)
                STORAGE_METRICS.counter("wal_gap_discards").inc()
                break
            records.append(WalRecord(commit_seq, tuple(deltas)))
            expected += 1
        return WalReplay(tuple(records), len(raw) - pos, discarded_records)


def rewrite_wal(
    path: "str | Path", records: "Iterable[WalRecord]", *, fsync: bool = True
) -> None:
    """Atomically rewrite the log as exactly ``records``.

    Recovery calls this after discarding a torn tail, a sequence gap,
    or an inconsistent record: the log reopens in append mode, so
    without the rewrite every later commit would land *after* the
    debris, where replay can never reach it -- acknowledged writes
    would silently vanish at the next crash.
    """
    from .store import atomic_write_bytes  # local: store imports nothing from here

    buf = bytearray(WAL_MAGIC)
    for record in records:
        payload = encode_deltas(record.commit_seq, record.deltas)
        buf += len(payload).to_bytes(4, "big")
        buf += zlib.crc32(payload).to_bytes(4, "big")
        buf += payload
    atomic_write_bytes(Path(path), bytes(buf), fsync=fsync)


def _count_remaining(raw: bytes, pos: int) -> int:
    """How many complete frames follow ``pos`` (for discard accounting)."""
    count = 0
    while pos + 8 <= len(raw):
        length = int.from_bytes(raw[pos : pos + 4], "big")
        if length > MAX_FRAME_BYTES or pos + 8 + length > len(raw):
            break
        pos += 8 + length
        count += 1
    return count
