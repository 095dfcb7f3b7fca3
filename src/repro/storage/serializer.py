"""Binary serialization of edge-labeled graphs.

The storage layer's wire format: a compact, self-contained encoding of the
reachable part of a graph.  Node ids are renumbered densely; labels are
encoded with one kind byte plus a kind-specific payload; all integers are
unsigned LEB128 varints (small graphs stay small).  The format carries no
object identity beyond graph structure -- exactly the observability the
model grants (section 2).

Format::

    magic "SSD1"
    varint num_nodes
    varint root
    repeated num_nodes times:
        varint out_degree
        repeated out_degree times: label, varint dst
    label := kind byte ('i','r','s','b','y') + payload

Decoding is canonical: a varint with a redundant zero group, a bool byte
other than 0 or 1 and a node the root does not reach are refused, so a
payload that decodes encodes back to the same bytes.
"""

from __future__ import annotations

import struct
from itertools import repeat

from ..core.graph import Graph
from ..core.labels import Label, LabelKind
from ..obs import MetricsRegistry

__all__ = ["dumps", "loads", "serialize_node_record", "SerializationError", "STORAGE_METRICS"]

#: Always-on storage traffic accounting: graphs and bytes through
#: dumps/loads.  Observability tests snapshot and reset it; the CLI's
#: ``stats --json`` reports it.
STORAGE_METRICS = MetricsRegistry()

_MAGIC = b"SSD1"

_INT, _REAL, _STRING, _BOOL, _SYMBOL = LabelKind  # definition order
_KIND_BYTES = {_INT: b"i", _REAL: b"r", _STRING: b"s", _BOOL: b"b", _SYMBOL: b"y"}
#: kind byte (as an int) -> kind
_BYTE_KINDS = {v[0]: k for k, v in _KIND_BYTES.items()}
_TEXT_KINDS = {ord("s"): _STRING, ord("y"): _SYMBOL}
_REAL_FORMAT = struct.Struct("<d")
#: builds a label without ``Label.__new__``'s type check: a decoder's
#: bytes already fix the kind and the value's type
_new = tuple.__new__


class SerializationError(ValueError):
    """Raised on corrupt or unsupported serialized data."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos``; one with a redundant zero group (which
    :func:`_write_varint` never writes) is refused, so every decodable
    record has one encoding."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                raise SerializationError("varint has a redundant zero group")
            return result, pos
        shift += 7


def _write_label(out: bytearray, label: Label) -> None:
    kind, value = label
    out += _KIND_BYTES[kind]
    if kind is _INT:
        # zigzag for signed ints
        _write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif kind is _REAL:
        out += _REAL_FORMAT.pack(value)
    elif kind is _BOOL:
        out.append(1 if value else 0)
    else:  # STRING / SYMBOL
        encoded = value.encode("utf-8")
        _write_varint(out, len(encoded))
        out += encoded


def _read_label(data: bytes, pos: int) -> tuple[Label, int]:
    if pos >= len(data):
        raise SerializationError("truncated label")
    kind = _BYTE_KINDS.get(data[pos])
    if kind is None:
        raise SerializationError(f"unknown label kind byte {data[pos : pos + 1]!r}")
    pos += 1
    if kind is _INT:
        raw, pos = _read_varint(data, pos)
        value = (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
    elif kind is _REAL:
        if pos + 8 > len(data):
            raise SerializationError("truncated real")
        (value,) = _REAL_FORMAT.unpack_from(data, pos)
        pos += 8
    elif kind is _BOOL:
        if pos >= len(data):
            raise SerializationError("truncated bool")
        if data[pos] > 1:
            raise SerializationError(f"bool label byte {data[pos]} is not 0 or 1")
        value = data[pos] == 1
        pos += 1
    else:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise SerializationError("truncated string")
        try:
            value = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"corrupt string payload: {exc}") from exc
        pos += length
    return _new(Label, (kind, value)), pos


def _read_labels(data: bytes, pos: int, count: int) -> tuple[list[Label], int]:
    """``count`` labels from ``pos``, as :func:`_read_label` reads them.
    A string or symbol whose length fits one varint byte (nearly all of
    them) is read inline, and every label is built in one ``map``."""
    kinds: list[LabelKind] = []
    values: list[object] = []
    size = len(data)
    try:
        for _ in range(count):
            kind = _TEXT_KINDS.get(data[pos]) if pos + 1 < size else None
            end = pos + 2 + data[pos + 1] if kind is not None else size + 1
            if end <= size and data[pos + 1] < 0x80:
                kinds.append(kind)
                values.append(data[pos + 2 : end].decode("utf-8"))
                pos = end
            else:
                (kind, value), pos = _read_label(data, pos)
                kinds.append(kind)
                values.append(value)
    except UnicodeDecodeError as exc:
        raise SerializationError(f"corrupt string payload: {exc}") from exc
    return list(map(_new, repeat(Label), zip(kinds, values))), pos


def dumps(graph: Graph) -> bytes:
    """Serialize the reachable part of ``graph``."""
    reach = sorted(graph.reachable())
    renumber = {node: i for i, node in enumerate(reach)}
    out = bytearray(_MAGIC)
    _write_varint(out, len(reach))
    _write_varint(out, renumber[graph.root])
    for node in reach:
        edges = [e for e in graph.edges_from(node) if e.dst in renumber]
        _write_varint(out, len(edges))
        for edge in edges:
            _write_label(out, edge.label)
            _write_varint(out, renumber[edge.dst])
    STORAGE_METRICS.counter("graphs_serialized").inc()
    STORAGE_METRICS.counter("bytes_serialized").inc(len(out))
    return bytes(out)


def loads(data: bytes) -> Graph:
    """Reconstruct a graph serialized by :func:`dumps`.

    Every failure mode of corrupt input -- bad magic, truncation at any
    byte, bit flips, implausible counts, invalid UTF-8, a node that is
    not reachable from the root -- raises
    :class:`SerializationError` (or a subclass-compatible ``ValueError``);
    no other exception type may escape.  Counts are sanity-checked
    *before* allocation, so a flipped bit in a varint cannot make the
    decoder try to allocate billions of nodes.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if data[:4] != _MAGIC:
        raise SerializationError("bad magic: not an SSD1 graph")
    pos = 4
    num_nodes, pos = _read_varint(data, pos)
    root, pos = _read_varint(data, pos)
    # plausibility: every node record costs at least one byte (its degree
    # varint), so a count beyond the remaining bytes is corruption, not data
    if num_nodes > len(data) - pos:
        raise SerializationError(
            f"implausible node count {num_nodes} for {len(data) - pos} payload bytes"
        )
    if num_nodes == 0:
        raise SerializationError("graph must have at least a root node")
    if root >= num_nodes:
        raise SerializationError("root out of range")
    g = Graph()
    nodes = [g.new_node() for _ in range(num_nodes)]
    g.set_root(nodes[root])
    for node in nodes:
        degree, pos = _read_varint(data, pos)
        # each edge costs at least two bytes (label kind + target varint)
        if degree > (len(data) - pos) // 2 + 1:
            raise SerializationError(
                f"implausible out-degree {degree} for {len(data) - pos} payload bytes"
            )
        for _ in range(degree):
            label, pos = _read_label(data, pos)
            dst, pos = _read_varint(data, pos)
            if dst >= num_nodes:
                raise SerializationError("edge target out of range")
            g.add_edge(node, label, nodes[dst])
    if pos != len(data):
        raise SerializationError("trailing bytes after graph")
    if len(g.reachable()) != num_nodes:  # dumps writes the reachable part only
        raise SerializationError("a node is unreachable from the root")
    STORAGE_METRICS.counter("graphs_loaded").inc()
    STORAGE_METRICS.counter("bytes_loaded").inc(len(data))
    return g


def serialize_node_record(graph: Graph, node: int, renumber: dict[int, int]) -> bytes:
    """One node's out-edge record (the unit the record store pages)."""
    out = bytearray()
    _write_varint(out, renumber[node])
    edges = [e for e in graph.edges_from(node) if e.dst in renumber]
    _write_varint(out, len(edges))
    for edge in edges:
        _write_label(out, edge.label)
        _write_varint(out, renumber[edge.dst])
    return bytes(out)
