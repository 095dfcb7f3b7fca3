"""Zero-copy shared-memory snapshots of frozen graphs.

The distributed runtime (:mod:`repro.distributed.parallel`) promotes
sites to real OS processes.  What makes that cheap is that a
:class:`~repro.core.frozen.FrozenGraph` is already *flat*: four
``array('q')`` vectors plus a per-node label-partition table.  This
module packs those vectors into one named
:class:`multiprocessing.shared_memory.SharedMemory` segment so worker
processes can traverse the same physical bytes the parent froze --
attaching is O(1) in the graph size, and no worker ever holds a private
copy of the adjacency.

Layout: a single segment holding every vector back to back (8-byte
aligned by construction), described by a small picklable
:class:`SharedGraphDescriptor` carrying the ``(offset, length)`` of each
field plus the interned label table, root, and version.  The per-node
partition dicts are flattened into four parallel vectors (node bucket
bounds, bucket label ids, bucket starts, flat bucket targets) so they
share the segment too; an attached graph rebuilds each node's dict
lazily, on first touch, as memoryview slices of the shared table.

Lifecycle is explicit and owner-biased:

* the **owner** (whoever called :func:`pack` / ``FrozenGraph.to_shared``)
  must call :meth:`SharedSnapshot.close` *and* :meth:`SharedSnapshot.unlink`
  (or use the snapshot as a context manager, which does both);
* **attachers** (workers, via :func:`attach` /
  ``FrozenGraph.from_shared``) call only :meth:`~SharedSnapshot.close`.
  Spawned children share the owner's ``resource_tracker`` process, so
  their attach re-registrations are idempotent and the owner's unlink
  balances them; a *foreign* process (own tracker, does not own the
  segment) should pass ``attach(..., untrack=True)`` or its tracker will
  unlink the owner's segment at exit (the pre-3.13 bpo-39959 footgun).

Every segment created by this process is recorded in a module-level
registry until unlinked; the test suite's session leak guard fails the
run if any remain (see ``tests/conftest.py``), so a forgotten ``unlink``
cannot land.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from itertools import count
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

from .labels import Label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .frozen import FrozenGraph

__all__ = [
    "SEGMENT_PREFIX",
    "SharedGraphDescriptor",
    "SharedSnapshot",
    "SharedSnapshotError",
    "attach",
    "flatten_partitions",
    "live_segments",
    "pack",
]

#: Prefix of every segment name this process creates.  The pid component
#: keeps concurrent test runs from colliding; the test-suite leak guard
#: globs ``/dev/shm`` for this prefix at session end.
SEGMENT_PREFIX = "repro_ssd_"

_SEGMENT_SEQ = count(1)

#: Names of segments created (and not yet unlinked) by *this* process.
_LIVE_SEGMENTS: set[str] = set()


class SharedSnapshotError(RuntimeError):
    """Misuse of the shared-snapshot lifecycle (closed handle, attacher
    unlink, truncated segment...)."""


def live_segments() -> frozenset[str]:
    """Names of segments this process created and has not unlinked."""
    return frozenset(_LIVE_SEGMENTS)


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_SEQ)}"


def flatten_partitions(
    fg: "FrozenGraph",
) -> tuple[array, array, array, array]:
    """``fg.partitions`` as four flat vectors (the shareable form).

    Returns ``(pb_off, plid, pstart, pidx)``: node position ``p`` owns
    buckets ``pb_off[p]:pb_off[p+1]``; bucket ``j`` carries label id
    ``plid[j]`` and targets ``pidx[pstart[j]:pstart[j+1]]``.  Bucket
    order follows each node's dict insertion order (first edge with the
    label), so the flattening is deterministic and round-trips exactly.
    """
    pb_off = array("q", [0])
    plid = array("q")
    pstart = array("q", [0])
    pidx = array("q")
    buckets = 0
    for part in fg.partitions:
        for lid, bucket in part.items():
            plid.append(lid)
            pidx.extend(bucket)
            pstart.append(len(pidx))
            buckets += 1
        pb_off.append(buckets)
    return pb_off, plid, pstart, pidx


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """Everything a worker needs to reattach a packed snapshot.

    Small and picklable: the big vectors stay in the segment; only the
    layout table, the interned label list, and a few scalars travel.
    ``fields`` maps field name -> ``(offset_items, length_items)`` into
    the segment viewed as one flat ``int64`` vector.
    """

    name: str
    fields: tuple[tuple[str, int, int], ...]
    labels: tuple[Label, ...]
    num_nodes: int
    num_edges: int
    root: "int | None"
    source_version: int
    dense: bool
    extras: tuple[str, ...] = field(default=())

    def layout(self) -> dict[str, tuple[int, int]]:
        return {name: (off, length) for name, off, length in self.fields}


#: The core vectors every snapshot packs, in segment order.
_CORE_FIELDS = (
    "offsets",
    "srcs",
    "targets",
    "label_ids",
    "pb_off",
    "plid",
    "pstart",
    "pidx",
)


def pack(
    fg: "FrozenGraph", *, extras: "dict[str, array] | None" = None
) -> "SharedSnapshot":
    """Copy ``fg``'s flat vectors into a fresh named shared segment.

    ``extras`` adds caller-owned ``array('q')`` vectors to the same
    segment under their own names (the parallel runtime ships the
    node-position -> site table this way).  Returns the owning
    :class:`SharedSnapshot`; the caller must eventually ``close()`` and
    ``unlink()`` it.
    """
    pb_off, plid, pstart, pidx = flatten_partitions(fg)
    vectors: list[tuple[str, array]] = [
        ("offsets", fg.offsets),
        ("srcs", fg.srcs),
        ("targets", fg.targets),
        ("label_ids", fg.label_ids),
        ("pb_off", pb_off),
        ("plid", plid),
        ("pstart", pstart),
        ("pidx", pidx),
    ]
    dense = fg.index is None
    if not dense:
        vectors.append(("node_ids", array("q", fg.node_ids)))
    extra_names: tuple[str, ...] = ()
    if extras:
        for name, vec in extras.items():
            if name in _CORE_FIELDS or name == "node_ids":
                raise ValueError(f"extra field name {name!r} collides with a core field")
            if not isinstance(vec, array) or vec.typecode != "q":
                raise TypeError(f"extra field {name!r} must be an array('q')")
            vectors.append((name, vec))
        extra_names = tuple(extras)
    fields: list[tuple[str, int, int]] = []
    offset = 0
    for name, vec in vectors:
        fields.append((name, offset, len(vec)))
        offset += len(vec)
    total_bytes = max(offset * 8, 8)  # zero-size segments are not portable
    name = _segment_name()
    shm = shared_memory.SharedMemory(name=name, create=True, size=total_bytes)
    _LIVE_SEGMENTS.add(shm.name)
    view = shm.buf.cast("q")
    try:
        for (_, off, length), (_, vec) in zip(fields, vectors):
            if length:
                view[off : off + length] = memoryview(vec)
    finally:
        view.release()
    descriptor = SharedGraphDescriptor(
        name=shm.name,
        fields=tuple(fields),
        labels=tuple(fg.labels_seq),
        num_nodes=fg.num_nodes,
        num_edges=fg.num_edges,
        root=fg._root,
        source_version=fg.source_version,
        dense=dense,
        extras=extra_names,
    )
    return SharedSnapshot(descriptor, shm, owner=True, source=fg)


def attach(
    descriptor: SharedGraphDescriptor, *, untrack: bool = False
) -> "SharedSnapshot":
    """Reattach a packed snapshot in this process, zero-copy.

    The returned snapshot does not own the segment: callers ``close()``
    it when done and must never ``unlink()``.

    ``untrack`` is for *foreign* attachers only -- a process with its
    own ``resource_tracker`` that did not create the segment and would
    otherwise unlink it at exit (pre-3.13 behavior).  Spawned children
    of the owner must leave it ``False``: they share the owner's tracker
    process, where attaching re-registers the same name idempotently and
    the owner's ``unlink()`` performs the single matching unregister.
    Untracking from a child would drain that shared registration early
    -- the owner's later unregister then crashes the tracker thread with
    a ``KeyError`` and, worse, a crashed owner would leak the segment
    with no tracker left knowing about it.
    """
    try:
        shm = shared_memory.SharedMemory(name=descriptor.name, create=False)
    except FileNotFoundError:
        raise SharedSnapshotError(
            f"shared segment {descriptor.name!r} does not exist (owner unlinked?)"
        ) from None
    if untrack:
        _untrack(shm)
    expected = sum(length for _, _, length in descriptor.fields) * 8
    if shm.size < expected:
        shm.close()
        raise SharedSnapshotError(
            f"shared segment {descriptor.name!r} is {shm.size} bytes, "
            f"descriptor expects at least {expected}"
        )
    return SharedSnapshot(descriptor, shm, owner=False)


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop an attached segment from this process's resource tracker.

    Attachers do not own the segment; before 3.13 (``track=False``) the
    tracker would both warn about and *unlink* it when this process
    exits, yanking the mapping out from under the owner.
    """
    try:  # pragma: no cover - absent on some platforms
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class _LazyPartitions:
    """List-of-dicts view of the flattened partition table.

    Indexing by node position materializes (and memoizes) that node's
    ``{label id: target bucket}`` dict, each bucket a memoryview
    slice of the shared ``pidx`` vector -- so generic kernel code that
    expects ``FrozenGraph.partitions`` works unchanged over an attached
    snapshot, while untouched nodes cost nothing.  The hot parallel
    worker loop bypasses this view and reads the flat vectors directly.
    """

    __slots__ = ("_pb_off", "_plid", "_pstart", "_pidx", "_cache", "_register")

    def __init__(self, pb_off, plid, pstart, pidx, register) -> None:
        self._pb_off = pb_off
        self._plid = plid
        self._pstart = pstart
        self._pidx = pidx
        self._cache: dict[int, dict[int, memoryview]] = {}
        self._register = register

    def __len__(self) -> int:
        return len(self._pb_off) - 1

    def __getitem__(self, pos: int) -> dict[int, memoryview]:
        part = self._cache.get(pos)
        if part is None:
            if not 0 <= pos < len(self._pb_off) - 1:
                raise IndexError(pos)
            part = {}
            pstart, pidx = self._pstart, self._pidx
            for j in range(self._pb_off[pos], self._pb_off[pos + 1]):
                bucket = pidx[pstart[j] : pstart[j + 1]]
                self._register(bucket)
                part[self._plid[j]] = bucket
            self._cache[pos] = part
        return part

    def __iter__(self):
        for pos in range(len(self)):
            yield self[pos]


class SharedSnapshot:
    """A handle on one packed graph segment (owning or attached).

    ``snapshot.graph`` is a real :class:`~repro.core.frozen.FrozenGraph`
    whose vector slots are memoryviews into the segment (for the owner,
    it is the original graph -- already zero-copy by definition).
    ``snapshot.field(name)`` exposes any packed vector, including
    ``extras``, as an ``int64`` memoryview.

    ``close()`` releases every exported view and unmaps the segment;
    the attached graph must not be used afterwards.  ``unlink()``
    destroys the segment system-wide and is the owner's duty alone.
    """

    def __init__(
        self,
        descriptor: SharedGraphDescriptor,
        shm: shared_memory.SharedMemory,
        *,
        owner: bool,
        source: "FrozenGraph | None" = None,
    ) -> None:
        self.descriptor = descriptor
        self.owner = owner
        self._shm: "shared_memory.SharedMemory | None" = shm
        self._views: list[memoryview] = []
        self._fields: dict[str, memoryview] = {}
        self._graph: "FrozenGraph | None" = source
        self._unlinked = False
        base = shm.buf.cast("q")
        self._views.append(base)
        for name, off, length in descriptor.fields:
            view = base[off : off + length]
            self._views.append(view)
            self._fields[name] = view

    # -- accessors -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def closed(self) -> bool:
        return self._shm is None

    def field(self, name: str) -> memoryview:
        """The packed vector ``name`` as an ``int64`` memoryview."""
        if self._shm is None:
            raise SharedSnapshotError("snapshot is closed")
        try:
            return self._fields[name]
        except KeyError:
            raise SharedSnapshotError(f"no packed field {name!r}") from None

    def _register(self, view: memoryview) -> None:
        self._views.append(view)

    @property
    def graph(self) -> "FrozenGraph":
        """The snapshot as a queryable :class:`FrozenGraph` (lazy)."""
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def _build_graph(self) -> "FrozenGraph":
        from .frozen import FrozenGraph, _fill

        if self._shm is None:
            raise SharedSnapshotError("snapshot is closed")
        d = self.descriptor
        fg = object.__new__(FrozenGraph)
        partitions = _LazyPartitions(
            self.field("pb_off"),
            self.field("plid"),
            self.field("pstart"),
            self.field("pidx"),
            self._register,
        )
        node_ids = range(d.num_nodes) if d.dense else list(self.field("node_ids"))
        fields = (self.field(name) for name in ("offsets", "srcs", "targets", "label_ids"))
        labels = {label: lid for lid, label in enumerate(d.labels)}
        _fill(fg, node_ids, *fields, list(d.labels), labels, partitions, d.root, d.source_version)
        fg._ext["shared"] = self
        return fg

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every exported view and unmap the segment (idempotent)."""
        if self._shm is None:
            return
        for view in reversed(self._views):
            view.release()
        self._views.clear()
        self._fields.clear()
        if self._graph is not None and not self.owner:
            # the attached graph's slots hold released views; drop them so
            # accidental reuse fails loudly on the released view, and the
            # graph cannot keep the buffer alive
            self._graph = None
        self._shm.close()
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment system-wide.  Owner only; idempotent."""
        if not self.owner:
            raise SharedSnapshotError(
                "only the packing process may unlink a shared snapshot"
            )
        if self._unlinked:
            return
        if self._shm is not None:
            self.close()
        try:
            shm = shared_memory.SharedMemory(name=self.descriptor.name, create=False)
        except FileNotFoundError:
            pass
        else:
            # no _untrack here: reattaching registered the name, and
            # ``unlink()`` performs the matching unregister itself --
            # unregistering twice makes the tracker process stack-trace
            shm.unlink()
            shm.close()
        self._unlinked = True
        _LIVE_SEGMENTS.discard(self.descriptor.name)

    def __enter__(self) -> "SharedSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self.owner else "attached"
        state = "closed" if self.closed else "open"
        return f"<SharedSnapshot {self.name} {role} {state}>"
