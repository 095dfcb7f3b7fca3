"""Wire-protocol tests: framing, fragmentation, typed refusal."""

import json

import pytest

from repro.service import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    validate_request,
)


def test_roundtrip_single_frame() -> None:
    obj = {"id": 1, "op": "ping"}
    decoder = FrameDecoder()
    assert list(decoder.feed(encode_frame(obj))) == [obj]
    assert decoder.pending_bytes == 0


def test_frame_is_length_prefixed_compact_json() -> None:
    frame = encode_frame({"b": 2, "a": 1})
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert json.loads(frame[4:]) == {"a": 1, "b": 2}
    assert frame[4:] == b'{"a":1,"b":2}'  # sorted keys, no spaces


def test_byte_at_a_time_fragmentation() -> None:
    objs = [{"id": i, "op": "ping"} for i in range(3)]
    wire = b"".join(encode_frame(o) for o in objs)
    decoder = FrameDecoder()
    out = []
    for i in range(len(wire)):
        out.extend(decoder.feed(wire[i : i + 1]))
    assert out == objs


def test_many_frames_in_one_read() -> None:
    objs = [{"id": i, "op": "ping"} for i in range(5)]
    wire = b"".join(encode_frame(o) for o in objs)
    assert list(FrameDecoder().feed(wire)) == objs


def test_oversized_length_prefix_refused_immediately() -> None:
    huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        list(FrameDecoder().feed(huge))


def test_undecodable_payload_refused() -> None:
    bad = b"\xff\xfe not json"
    wire = len(bad).to_bytes(4, "big") + bad
    with pytest.raises(ProtocolError):
        list(FrameDecoder().feed(wire))


def test_non_object_payload_refused() -> None:
    payload = b"[1,2,3]"
    wire = len(payload).to_bytes(4, "big") + payload
    with pytest.raises(ProtocolError):
        list(FrameDecoder().feed(wire))


def test_encode_refuses_oversized_object() -> None:
    with pytest.raises(ProtocolError):
        encode_frame({"id": 1, "op": "rpq", "query": "x" * (MAX_FRAME_BYTES + 1)})


@pytest.mark.parametrize(
    "request_obj",
    [
        {"id": 1, "op": "rpq", "query": "Entry"},
        {"id": 2, "op": "lorel", "query": "select m from DB.Entry m"},
        {"id": 3, "op": "unql", "query": "select \\t where {Entry: \\t} in db"},
        {"id": 4, "op": "find", "query": "Casablanca"},
        {"id": 5, "op": "ping"},
        {"id": 6, "op": "stats"},
        {"id": 7, "op": "cancel", "target": 1},
        {"id": 8, "op": "rpq", "query": "Entry", "deadline": 0.5, "budget": 100},
    ],
)
def test_validate_accepts(request_obj: dict) -> None:
    assert validate_request(request_obj) is request_obj


@pytest.mark.parametrize(
    "request_obj",
    [
        {},
        {"id": 1},
        {"id": 1, "op": "teleport"},
        {"op": "ping"},
        {"id": "one", "op": "ping"},
        {"id": True, "op": "rpq", "query": "Entry"},  # bool is not an id
        {"id": 1, "op": "rpq"},  # query op without query
        {"id": 1, "op": "rpq", "query": 7},
        {"id": 1, "op": "cancel"},  # cancel without target
        {"id": 1, "op": "cancel", "target": "2"},
        {"id": 1, "op": "rpq", "query": "E", "deadline": 0},
        {"id": 1, "op": "rpq", "query": "E", "deadline": -1.5},
        {"id": 1, "op": "rpq", "query": "E", "budget": 0},
        {"id": 1, "op": "rpq", "query": "E", "budget": 1.5},
        {"id": 1, "op": "rpq", "query": "E", "budget": True},
        {"id": 1, "op": "rpq", "query": "E", "deadline": float("nan")},
        {"id": 1, "op": "rpq", "query": "E", "deadline": float("inf")},
        {"id": 1, "op": "rpq", "query": "E", "profile": "no"},
        {"id": 1, "op": "rpq", "query": "E", "profile": 1},
        # unhashable op / kind: refused, not a TypeError from the set lookup
        {"id": 1, "op": ["rpq"], "query": "E"},
        {"id": 1, "op": {"rpq": 1}, "query": "E"},
        {"id": 1, "op": "apply", "mutations": [{"kind": ["node"]}]},
        {"id": 1, "op": "apply", "mutations": [{"kind": {}}]},
    ],
)
def test_validate_refuses(request_obj: dict) -> None:
    with pytest.raises(ProtocolError):
        validate_request(request_obj)
