"""The checkpoint file: the snapshot's own vectors, refused whole if hostile.

A checkpoint holds a snapshot's ``offsets``, ``targets`` and
``label_ids`` at their narrowest width, its node ids (a count when
dense), its label table in label-id order, root and next id.  Decoding
returns exactly those vectors and rebuilds the label runs;
a payload whose CRC holds but whose contents disagree is refused with a
:class:`SerializationError`, never a ``GraphError`` or a half-built
snapshot.
"""

import sys
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frozen import FrozenGraph, freeze
from repro.core.graph import Graph
from repro.core.labels import sym
from repro.datasets import generate_movies
from repro.storage import AddEdge, AddNode, SetRoot, VersionedGraphStore
from repro.storage.mvcc import CHECKPOINT_MAGIC, CHECKPOINT_NAME, _decode_state, _encode_state
from repro.storage.serializer import SerializationError, _write_label, _write_varint


def run_buckets(fg, pos: int) -> "list[tuple[int, list[int]]]":
    """The node at ``pos``'s targets per label id, through its runs."""
    buckets: dict[int, list[int]] = {}
    start = fg.offsets[pos]
    for r in range(fg.run_off[pos], fg.run_off[pos + 1]):
        end = start + fg.run_len[r]
        buckets.setdefault(fg.run_lid[r], []).extend(fg.targets[start:end])
        start = end
    return list(buckets.items())


def snapshot_parts(fg) -> dict:
    """Everything a checkpoint must give back: the vectors, and each
    node's targets per label read through its label runs, in bucket
    order."""
    return {
        "node_ids": list(fg.node_ids),
        "dense": fg.index is None,
        "offsets": fg.offsets,
        "targets": fg.targets,
        "label_ids": fg.label_ids,
        "labels_seq": fg.labels_seq,
        "label_index": fg.label_index,
        "buckets": [run_buckets(fg, pos) for pos in range(fg.num_nodes)],
        "runs": (fg.run_off, fg.run_lid, fg.run_len),
        "root": fg._root,
    }


def decode_file(directory: Path):
    raw = (directory / CHECKPOINT_NAME).read_bytes()
    return _decode_state(raw[16:], int.from_bytes(raw[4:12], "big"))


def test_a_round_trip_returns_the_snapshot_vectors(tmp_path: Path) -> None:
    """movies-2000, dense at creation; indexed after a commit that skips
    ids, adds a label and re-roots.  Label ids come back as they were,
    not re-interned, in under 8 bytes per edge."""
    store = VersionedGraphStore.create(tmp_path / "s", generate_movies(2000, seed=5), durable=False)
    with store:
        fg, next_id = decode_file(tmp_path / "s")
        assert snapshot_parts(fg) == snapshot_parts(store.view().frozen)
        assert next_id == store._next_id
        assert (tmp_path / "s" / CHECKPOINT_NAME).stat().st_size < 8 * fg.num_edges
        fresh = store._next_id + 3
        store.commit(
            [AddNode(fresh), AddEdge(fresh, sym("Sequel"), 1), AddEdge(0, sym("Sequel"), fresh),
             SetRoot(fresh)]
        )
        store.checkpoint()
        fg, next_id = decode_file(tmp_path / "s")
        assert fg.index is not None
        assert snapshot_parts(fg) == snapshot_parts(store.view().frozen)
        assert next_id == fresh + 1 == store._next_id


def test_the_widest_id_round_trips_and_a_wider_one_is_refused(tmp_path: Path) -> None:
    g = Graph()
    g.set_root(g.new_node())
    g.ensure_node(2**64 - 1)
    VersionedGraphStore.create(tmp_path / "fits", g, durable=False).close()
    fg, next_id = decode_file(tmp_path / "fits")
    assert list(fg.node_ids) == [0, 2**64 - 1] and next_id == 2**64
    g.ensure_node(2**64)
    with pytest.raises(SerializationError, match="64 bits"):
        VersionedGraphStore.create(tmp_path / "wide", g, durable=False)
    assert not (tmp_path / "wide" / CHECKPOINT_NAME).exists()


# -- hostile payloads ----------------------------------------------------------
#
# A valid three-node graph, 0 -a-> 1, 0 -b-> 2, 1 -a-> 2, rooted at 0, one
# part at a time, so each case below corrupts exactly one of them.


def varint(value: int) -> bytes:
    out = bytearray()
    _write_varint(out, value)
    return bytes(out)


def vector(items, code: str = "B") -> bytes:
    vec = array(code, items)
    if sys.byteorder == "big":
        vec.byteswap()
    return code.encode() + varint(len(vec)) + vec.tobytes()


def labels(*names: str) -> bytes:
    out = bytearray(varint(len(names)))
    for name in names:
        _write_label(out, sym(name))
    return bytes(out)


VALID = {
    "next_id": varint(3),
    "root": varint(1),
    "labels": labels("a", "b"),
    "nodes": b"\x00" + varint(3),
    "offsets": vector([0, 2, 3, 3]),
    "targets": vector([1, 2, 2]),
    "label_ids": vector([0, 1, 0]),
}

HOSTILE = {
    "unknown typecode": {"offsets": vector([0, 2, 3, 3], "q")},
    "vector runs past the payload": {"label_ids": b"B" + varint(100) + bytes(3)},
    "offsets start past 0": {"offsets": vector([1, 2, 3, 3])},
    "offsets end short of the targets": {"offsets": vector([0, 2, 2, 2])},
    "offsets decrease": {"offsets": vector([0, 2, 1, 3])},
    "offsets of the wrong length": {"offsets": vector([0, 2, 3])},
    "label ids shorter than the targets": {"label_ids": vector([0, 1])},
    "label id past the table": {"label_ids": vector([0, 2, 0])},
    "repeated label": {"labels": labels("a", "a")},
    "target not a node": {"targets": vector([1, 2, 3])},
    "repeated node id": {"nodes": b"\x01" + vector([0, 1, 1]), "targets": vector([1, 1, 1])},
    "target past 2**63": {
        "next_id": varint(2**63 + 1),
        "nodes": b"\x01" + vector([0, 1, 2**63], "Q"),
        "targets": vector([1, 2**63, 2**63], "Q"),
    },
    "source past 2**63": {
        "next_id": varint(2**63 + 1),
        "nodes": b"\x01" + vector([0, 1, 2**63], "Q"),
        "offsets": vector([0, 2, 2, 3]),
        "targets": vector([1, 1, 1]),
    },
    "root not a node": {"root": varint(4)},
    "next id not past the nodes": {"next_id": varint(2)},
    "unknown node layout": {"nodes": b"\x02" + varint(3)},
    "trailing bytes": {"label_ids": vector([0, 1, 0]) + b"\x00"},
    "the retired SSDC magic": {"magic": b"SSDC"},
}


def write_checkpoint(directory: Path, magic: bytes = CHECKPOINT_MAGIC, **parts: bytes) -> None:
    payload = b"".join({**VALID, **parts}.values())
    header = magic + (0).to_bytes(8, "big") + zlib.crc32(payload).to_bytes(4, "big")
    directory.mkdir()
    (directory / CHECKPOINT_NAME).write_bytes(header + payload)


def test_the_valid_payload_opens(tmp_path: Path) -> None:
    write_checkpoint(tmp_path / "s")
    with VersionedGraphStore(tmp_path / "s", durable=False) as store:
        fg = store.view().frozen
        assert [(e.src, e.label, e.dst) for e in fg.edges()] == [
            (0, sym("a"), 1), (0, sym("b"), 2), (1, sym("a"), 2)
        ]
        assert fg.root == 0 and store.batch().new_node() == 3


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_checkpoint_is_refused_with_a_typed_error(tmp_path: Path, case: str) -> None:
    write_checkpoint(tmp_path / "s", **HOSTILE[case])
    with pytest.raises(SerializationError):
        VersionedGraphStore(tmp_path / "s", durable=False)


def test_the_retired_per_edge_format_is_refused_by_name(tmp_path: Path) -> None:
    write_checkpoint(tmp_path / "s", **HOSTILE["the retired SSDC magic"])
    with pytest.raises(SerializationError, match="retired per-edge SSDC format"):
        VersionedGraphStore(tmp_path / "s", durable=False)


# -- the decoder over mutated payloads -------------------------------------------
#
# The CRC guards the file, not the decoder: with it recomputed, any byte
# string can reach ``_decode_state``.  Whatever it returns must be a
# snapshot that encodes back to exactly the bytes it came from, and a
# snapshot holds flat vectors, not a Python container per node.

MOVIES = generate_movies(40, seed=3)
PAYLOAD = bytes(_encode_state(freeze(MOVIES), MOVIES._next_id, 7)[16:])
#: slots that may hold Python containers: the label table, the sparse-id
#: index and the per-snapshot caches
CONTAINER_SLOTS = {"labels_seq", "label_index", "index", "_edge_cache", "_ext"}


def flip(data: st.DataObject) -> bytes:
    at = data.draw(st.integers(0, len(PAYLOAD) - 1))
    bit = data.draw(st.integers(0, 7))
    return PAYLOAD[:at] + bytes([PAYLOAD[at] ^ (1 << bit)]) + PAYLOAD[at + 1 :]


def truncate(data: st.DataObject) -> bytes:
    return PAYLOAD[: data.draw(st.integers(0, len(PAYLOAD) - 1))]


def insert(data: st.DataObject) -> bytes:
    at = data.draw(st.integers(0, len(PAYLOAD)))
    return PAYLOAD[:at] + data.draw(st.binary(min_size=1, max_size=4)) + PAYLOAD[at:]


def test_the_unmutated_payload_round_trips() -> None:
    fg, next_id = _decode_state(PAYLOAD, 7)
    assert bytes(_encode_state(fg, next_id, 7)[16:]) == PAYLOAD
    assert fg.num_edges == MOVIES.num_edges


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_payload_is_refused_or_reencodes_to_itself(data: st.DataObject) -> None:
    payload = data.draw(st.sampled_from([flip, truncate, insert]))(data)
    try:
        fg, next_id = _decode_state(payload, 7)
    except SerializationError:
        return
    assert bytes(_encode_state(fg, next_id, 7)[16:]) == payload
    for slot in FrozenGraph.__slots__:
        value = getattr(fg, slot)
        if slot not in CONTAINER_SLOTS and not isinstance(value, (int, type(None))):
            assert isinstance(value, (array, range)), slot
