"""Persistent storage for semistructured data (section 4)."""

from .external import EXTERNAL_MARKER, ExternalGraph
from .mvcc import (
    RecoveryReport,
    SnapshotView,
    VersionedGraphStore,
    WriteBatch,
)
from .serializer import STORAGE_METRICS, SerializationError, dumps, loads
from .store import (
    GraphStore,
    PageCache,
    atomic_write_bytes,
    traversal_page_faults,
)
from .wal import (
    AddEdge,
    AddNode,
    SetRoot,
    WriteAheadLog,
    live_wal_handles,
)

__all__ = [
    "dumps",
    "loads",
    "SerializationError",
    "STORAGE_METRICS",
    "GraphStore",
    "PageCache",
    "traversal_page_faults",
    "atomic_write_bytes",
    "ExternalGraph",
    "EXTERNAL_MARKER",
    "AddNode",
    "AddEdge",
    "SetRoot",
    "WriteAheadLog",
    "live_wal_handles",
    "VersionedGraphStore",
    "WriteBatch",
    "SnapshotView",
    "RecoveryReport",
]
