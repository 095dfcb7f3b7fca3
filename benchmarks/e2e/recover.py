"""Durability check and reopen timing on a killed store directory.

Run as a script in a fresh process (``python recover.py DIR --durable-bytes
N --cycles K``; prints one JSON object) so the reopen pays what a real
restart pays; the traced in-process round calls :func:`check_and_time`
directly so the reopen's spans are recorded.

A ``SIGKILL`` leaves the OS page cache intact, so the check discards the
unflushed bytes itself: the WAL *copy* is cut to ``durable_bytes`` (the
log's size right after the last ``sync: true`` commit was answered) plus
half of the next frame -- what a power cut mid-write would leave.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

MARKER_PREFIXES = ("New ", "Warm ")
MIN_CYCLE_SECONDS = 0.5  # tiny stores reopen in a millisecond: time more cycles
MAX_CYCLES = 200


def _torn_copy(directory: Path, durable_bytes: "int | None") -> Path:
    from repro.storage.mvcc import WAL_NAME

    torn = directory.with_name(directory.name + ".torn")
    shutil.copytree(directory, torn)
    wal = torn / WAL_NAME
    if durable_bytes is not None and wal.exists():
        raw = wal.read_bytes()
        keep = durable_bytes
        if len(raw) >= durable_bytes + 4:
            payload = int.from_bytes(raw[durable_bytes:durable_bytes + 4], "big")
            keep += (8 + payload) // 2
        with open(wal, "r+b") as fh:
            fh.truncate(min(keep, len(raw)))
    return torn


def _markers(graph) -> list[str]:
    """Marker strings below ``Entry.Movie.Title``, in commit order."""
    from repro.automata.product import rpq_nodes

    found = []
    for node in sorted(rpq_nodes(graph, "Entry.Movie.Title")):
        for edge in graph.edges_from(node):
            if edge.label.is_string and str(edge.label.value).startswith(MARKER_PREFIXES):
                found.append(str(edge.label.value))
    return found


def check_and_time(
    directory: "str | Path", durable_bytes: "int | None", cycles: int,
    min_seconds: float = MIN_CYCLE_SECONDS,
) -> dict:
    """Recover a torn copy of ``directory``, then time clean reopens of it."""
    from repro.storage.mvcc import VersionedGraphStore

    directory = Path(directory)
    torn = _torn_copy(directory, durable_bytes)
    try:
        with VersionedGraphStore(torn) as store:
            report = store.recovery
            result = {
                "version": store.version,
                "edges": store.graph.num_edges,
                "markers": _markers(store.graph),
                "replayed_records": report.replayed_records,
                "discarded_bytes": report.discarded_bytes,
            }
    finally:
        shutil.rmtree(torn, ignore_errors=True)
    times: list[float] = []
    while len(times) < cycles or (sum(times) < min_seconds and len(times) < MAX_CYCLES):
        gc.collect()
        start = time.perf_counter()
        store = VersionedGraphStore(directory)
        edges = store.view().frozen.num_edges
        times.append(time.perf_counter() - start)
        store.close()
        if edges <= 0:
            raise AssertionError("reopened store is empty")
    result["times"] = times
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory")
    parser.add_argument("--durable-bytes", type=int, default=None)
    parser.add_argument("--cycles", type=int, default=3)
    args = parser.parse_args(argv)
    json.dump(check_and_time(args.directory, args.durable_bytes, args.cycles), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
