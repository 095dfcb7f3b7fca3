"""A paged record store with clustering: the physical layer of section 4.

"In the second case [storing semistructured data directly], disk layout
and clustering, together with appropriate indexing, is also important."

:class:`GraphStore` lays one record per node (its out-edge list) into
fixed-size pages.  The *clustering order* decides which records share a
page:

* ``dfs``    -- parents packed next to their subtrees: traversals touch
  few pages (the layout Lore-style systems use);
* ``bfs``    -- level order: good for shallow scans;
* ``random`` -- the adversarial baseline E12 compares against.

:class:`PageCache` is an LRU buffer over the store's pages; traversal
helpers count page faults so the clustering effect is measurable without
real disks (the substitution DESIGN.md documents).
"""

from __future__ import annotations

import os
import random
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..core.graph import Graph
from ..resilience import EventLog
from .serializer import STORAGE_METRICS, SerializationError, dumps, loads, serialize_node_record

__all__ = [
    "GraphStore",
    "PageCache",
    "traversal_page_faults",
    "atomic_write_bytes",
]


@dataclass
class _Record:
    node: int
    page: int
    offset: int
    length: int


class GraphStore:
    """Node records packed into fixed-size pages in a chosen order."""

    def __init__(self, graph: Graph, clustering: str = "dfs", page_size: int = 4096,
                 seed: int = 0) -> None:
        if page_size < 64:
            raise ValueError("page_size too small to hold records")
        self.page_size = page_size
        self.clustering = clustering
        self._graph = graph
        reach = sorted(graph.reachable())
        self._renumber = {node: i for i, node in enumerate(reach)}
        order = self._order_nodes(graph, clustering, seed)
        self.pages: list[bytearray] = [bytearray()]
        self._records: dict[int, _Record] = {}
        for node in order:
            record = serialize_node_record(graph, node, self._renumber)
            if len(record) > page_size:
                # oversized record: gets its own page (and spills logically)
                self.pages.append(bytearray(record))
                page = len(self.pages) - 1
                self._records[node] = _Record(node, page, 0, len(record))
                self.pages.append(bytearray())
                continue
            if len(self.pages[-1]) + len(record) > page_size:
                self.pages.append(bytearray())
            page = len(self.pages) - 1
            offset = len(self.pages[-1])
            self.pages[-1] += record
            self._records[node] = _Record(node, page, offset, len(record))

    @staticmethod
    def _order_nodes(graph: Graph, clustering: str, seed: int) -> list[int]:
        if clustering == "dfs":
            order: list[int] = []
            seen = {graph.root}
            stack = [graph.root]
            while stack:
                node = stack.pop()
                order.append(node)
                for edge in reversed(graph.edges_from(node)):
                    if edge.dst not in seen:
                        seen.add(edge.dst)
                        stack.append(edge.dst)
            return order
        if clustering == "bfs":
            from collections import deque

            order = []
            seen = {graph.root}
            queue = deque([graph.root])
            while queue:
                node = queue.popleft()
                order.append(node)
                for edge in graph.edges_from(node):
                    if edge.dst not in seen:
                        seen.add(edge.dst)
                        queue.append(edge.dst)
            return order
        if clustering == "random":
            order = sorted(graph.reachable())
            random.Random(seed).shuffle(order)
            return order
        raise ValueError(f"unknown clustering {clustering!r}")

    # -- access ------------------------------------------------------------------

    def page_of(self, node: int) -> int:
        return self._records[node].page

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def bytes_used(self) -> int:
        return sum(len(p) for p in self.pages)

    def occupancy(self) -> float:
        """Mean fill fraction of the store's pages."""
        if not self.pages:
            return 0.0
        return self.bytes_used / (self.num_pages * self.page_size)

    # -- persistence -----------------------------------------------------------------

    def save(self, path: "str | Path", *, durable: bool = True) -> None:
        """Write the whole graph to disk, crash-safely.

        The on-disk format is the plain SSD1 serialization; the page
        layout is a run-time artifact rebuilt on load with the same
        clustering parameters.

        The write is atomic: the payload goes to a temporary file in the
        *same directory*, is flushed (and, with ``durable``, fsynced),
        and only then renamed over the target.  A crash at any byte of
        the write leaves the target either the complete old graph or
        the complete new one -- a torn file is never loadable because a
        torn file is never *visible* under the target name (the
        kill-mid-save tests drive every interruption point).

        ``durable=False`` skips the fsyncs (atomicity without the disk
        round-trip); to amortize durability across many small changes,
        log deltas through :class:`~repro.storage.wal.WriteAheadLog`
        instead.
        """
        atomic_write_bytes(path, dumps(self._graph), fsync=durable)

    @classmethod
    def load(
        cls, path: "str | Path", clustering: str = "dfs", page_size: int = 4096
    ) -> "GraphStore":
        """Rebuild a store from disk.

        Corrupt payloads surface as :class:`SerializationError` -- a
        truncated or bit-flipped file must never escape as an untyped
        decoding exception (the robustness suite fuzzes this).
        """
        try:
            graph = loads(Path(path).read_bytes())
        except SerializationError:
            raise
        except ValueError as exc:  # defensive: decoding helpers grow over time
            raise SerializationError(f"corrupt store file {path}: {exc}") from exc
        return cls(graph, clustering=clustering, page_size=page_size)

    @property
    def graph(self) -> Graph:
        return self._graph


# -- crash-safe persistence helpers -----------------------------------------------


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (the rename itself) to disk."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fsync
        return
    try:
        os.fsync(fd)
        STORAGE_METRICS.counter("fsyncs").inc()
    finally:
        os.close(fd)


def atomic_write_bytes(path: "str | Path", data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` with rename atomicity.

    The temp file lives in the target's own directory (``os.replace``
    must not cross filesystems), under a dot-name no loader globs.  The
    sequence is the classic one: write temp, flush, fsync the temp,
    rename over the target, fsync the directory.  Readers of ``path``
    see the old bytes or the new bytes, never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
                STORAGE_METRICS.counter("fsyncs").inc()
        os.replace(tmp, path)
    except BaseException:
        # a failed save must not litter: the target is untouched, so
        # removing the torn temp restores the pre-call state exactly
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(path.parent)
    STORAGE_METRICS.counter("atomic_saves").inc()


class PageCache:
    """An LRU buffer pool over a store's pages, counting faults.

    An optional :class:`~repro.resilience.EventLog` receives one
    ``page-fault`` event per miss, putting buffer-pool behavior on the
    same observability bus as retries and breaker trips.
    """

    def __init__(
        self, store: GraphStore, capacity: int, events: "EventLog | None" = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache needs at least one frame")
        self._store = store
        self._capacity = capacity
        self._frames: OrderedDict[int, bytearray] = OrderedDict()
        self._events = events
        self.faults = 0
        self.hits = 0

    def read_node(self, node: int) -> None:
        """Touch the page holding ``node``'s record."""
        page = self._store.page_of(node)
        if page in self._frames:
            self.hits += 1
            self._frames.move_to_end(page)
            return
        self.faults += 1
        if self._events is not None:
            self._events.emit("page-fault", page=page, node=node)
        self._frames[page] = self._store.pages[page]
        if len(self._frames) > self._capacity:
            self._frames.popitem(last=False)


def traversal_page_faults(
    store: GraphStore, cache_pages: int = 8, order: str = "dfs"
) -> int:
    """Page faults of a full traversal through an LRU cache.

    The E12 measurement: the same logical traversal against differently
    clustered stores shows how much layout matters.
    """
    graph = store.graph
    cache = PageCache(store, cache_pages)
    seen = {graph.root}
    if order == "dfs":
        stack = [graph.root]
        while stack:
            node = stack.pop()
            cache.read_node(node)
            for edge in reversed(graph.edges_from(node)):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
    elif order == "bfs":
        from collections import deque

        queue = deque([graph.root])
        while queue:
            node = queue.popleft()
            cache.read_node(node)
            for edge in graph.edges_from(node):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)
    else:
        raise ValueError(f"unknown traversal order {order!r}")
    return cache.faults
