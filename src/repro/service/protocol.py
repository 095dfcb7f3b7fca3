"""The wire protocol: length-prefixed JSON frames, sans-I/O.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Length-prefixing (rather than newline-delimiting)
keeps the framing independent of the payload -- queries may contain any
text -- and makes partial reads explicit: a :class:`FrameDecoder` buffers
bytes from *any* transport and yields complete objects, so the asyncio
server, the deterministic in-process harness, and the tests all share
one codec with no socket in sight.

Requests and responses are plain dicts (no classes to version):

Request::

    {"id": 1, "op": "rpq", "query": "Entry.Movie.Title",
     "deadline": 0.5,        # optional: seconds of clock budget
     "budget": 100000,       # optional: max edges scanned
     "profile": false,       # optional: attach a QueryProfile
     "engine": "native"}     # optional: native | sql | auto

``engine`` names the evaluator: ``native`` (the default) runs the graph
engines, ``sql`` the relational one on ``rpq``/``lorel``/``unql`` -- a
query outside its fragment answers ``error`` -- and ``auto`` is an alias
of ``native``.  ``op`` is one of ``rpq | lorel | unql | find | apply | stats | ping |
cancel``; ``cancel`` carries ``{"target": <id>}`` instead of a query.

``apply`` is the write op (services backed by a
:class:`~repro.storage.VersionedGraphStore` only)::

    {"id": 2, "op": "apply",
     "mutations": [{"kind": "node", "name": "m"},
                   {"kind": "edge", "src": 7, "label": "Movie", "dst": "m"},
                   {"kind": "root", "node": 7}],
     "sync": true}            # optional: false defers the fsync (group commit)

Node ``name`` strings are batch-local handles for wiring edges to nodes
created in the same request; the response's ``result.nodes`` maps them
to their allocated ids.  A ``label`` may be a JSON scalar (strings mean
*symbols*, numbers and booleans mean base data) or an explicit
``{"kind": "string"|"symbol"|"int"|"real"|"bool", "value": ...}``.

Response (one per request, matched by ``id``)::

    {"id": 1, "status": "ok", "result": [...]}

``status`` is the typed outcome contract (docs/SERVICE.md):

* ``ok``         -- exact answer in ``result``;
* ``partial``    -- lower-bound answer: ``reason`` is ``cancelled`` or
  ``budget``, ``completeness`` describes what was dropped;
* ``deadline``   -- the per-query deadline expired; like ``partial``
  but its own status because clients treat time and cancellation
  differently (retry vs. forget);
* ``overloaded`` -- shed at admission, no work done; ``retry_after``
  hints when to try again;
* ``error``      -- the query itself is bad (syntax, unknown op) or a
  dependency failed fast (open breaker, injected fault).
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterator

from .errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "MUTATION_KINDS",
    "STATUSES",
    "encode_frame",
    "FrameDecoder",
    "validate_request",
]

#: Refuse frames above this size: a length prefix is an allocation
#: request from an untrusted peer, and 16 MiB is far beyond any query.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Every operation the dispatcher understands.
OPS = frozenset({"rpq", "lorel", "unql", "find", "apply", "stats", "ping", "cancel"})

#: The mutation kinds an ``apply`` request may carry.
MUTATION_KINDS = frozenset({"node", "edge", "root"})

#: Every status a response can carry.
STATUSES = frozenset({"ok", "partial", "deadline", "overloaded", "error"})


def encode_frame(obj: dict) -> bytes:
    """One wire frame for ``obj`` (compact JSON, length-prefixed)."""
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser: feed bytes in, iterate objects out.

    Tolerates arbitrary fragmentation (one byte at a time works) and
    fails typed: an oversized length prefix or undecodable payload
    raises :class:`ProtocolError` immediately rather than consuming
    memory until something else breaks.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> "Iterator[dict]":
        """Buffer ``data``; yield every frame now complete."""
        self._buf += data
        while True:
            if len(self._buf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
                )
            if len(self._buf) < _LEN.size + length:
                return
            payload = bytes(self._buf[_LEN.size : _LEN.size + length])
            del self._buf[: _LEN.size + length]
            try:
                obj = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame: {exc}") from exc
            if not isinstance(obj, dict):
                raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
            yield obj


def validate_request(obj: dict) -> dict:
    """Check one decoded request frame; returns it (for chaining).

    Validation is deliberately shallow -- presence and types of the
    envelope fields.  Query-language syntax errors belong to the engine
    and come back as ``status: error`` responses, not protocol faults:
    a bad query must not kill the connection carrying it.
    """
    op = obj.get("op")
    # an unhashable op or kind must be refused, not raise TypeError
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {sorted(OPS)})")
    rid = obj.get("id")
    if not isinstance(rid, int) or isinstance(rid, bool):
        raise ProtocolError("request needs an integer 'id'")
    if op == "cancel":
        target = obj.get("target")
        if not isinstance(target, int) or isinstance(target, bool):
            raise ProtocolError("cancel needs an integer 'target' request id")
    elif op in ("rpq", "lorel", "unql", "find"):
        if not isinstance(obj.get("query"), str):
            raise ProtocolError(f"op {op!r} needs a string 'query'")
        engine = obj.get("engine")
        if engine is not None and engine not in ("native", "sql", "auto"):
            raise ProtocolError(
                f"'engine' must be 'native', 'sql' or 'auto', got {engine!r}"
            )
    elif op == "apply":
        mutations = obj.get("mutations")
        if not isinstance(mutations, list) or not mutations:
            raise ProtocolError("apply needs a non-empty 'mutations' list")
        for mutation in mutations:
            if not isinstance(mutation, dict):
                raise ProtocolError("each mutation must be an object")
            kind = mutation.get("kind")
            if not isinstance(kind, str) or kind not in MUTATION_KINDS:
                raise ProtocolError(
                    f"mutation kind must be one of {sorted(MUTATION_KINDS)}, "
                    f"got {kind!r}"
                )
        sync = obj.get("sync")
        if sync is not None and not isinstance(sync, bool):
            raise ProtocolError("'sync' must be a boolean")
    for field, kinds in (("deadline", (int, float)), ("budget", (int,))):
        value = obj.get(field)
        if value is not None:
            # json.loads admits NaN and Infinity, and NaN <= 0 is false
            if not isinstance(value, kinds) or isinstance(value, bool) or not 0 < value < math.inf:
                raise ProtocolError(f"{field!r} must be a positive finite number")
    if obj.get("profile") is not None and not isinstance(obj["profile"], bool):
        raise ProtocolError("'profile' must be a boolean")
    return obj
