"""Crash-safe whole-file writes: the rename-atomic half of persistence.

"In the second case [storing semistructured data directly], disk layout
and clustering, together with appropriate indexing, is also important."
A graph reaches disk in two images: the SSD1 dump of
:mod:`~repro.storage.serializer` and the MVCC store's checkpoint
(:mod:`~repro.storage.mvcc`), whose node order is the layout.  Both
are written whole through :func:`atomic_write_bytes`, so a reader sees
the old file or the new one, never a prefix.
"""

from __future__ import annotations

import os
from pathlib import Path

from .serializer import STORAGE_METRICS

__all__ = ["atomic_write_bytes"]


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
