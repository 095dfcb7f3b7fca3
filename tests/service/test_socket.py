"""Socket end-to-end: the asyncio front-end over real TCP (loopback).

The deterministic chaos lives in ``test_server.py``; these tests only
prove the thin asyncio skin -- framing over a real stream, one session
per connection, concurrent queries on one connection, session-table
shedding of excess connections -- using ephemeral loopback ports.
"""

import asyncio
import socket
import threading

import pytest

from repro.cli import main
from repro.datasets import generate_movies
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AsyncQueryServer,
    FrameDecoder,
    QueryService,
    encode_frame,
    request_over_socket,
)


def run_against_server(requests: "list[dict]", **service_kw) -> "list[dict]":
    service_kw.setdefault("metrics", MetricsRegistry())

    async def scenario() -> "list[dict]":
        service = QueryService(generate_movies(15, seed=4), **service_kw)
        server = AsyncQueryServer(service)
        await server.start()
        try:
            return await request_over_socket("127.0.0.1", server.bound_port, requests)
        finally:
            await server.stop()

    return asyncio.run(scenario())


def test_single_query_roundtrip() -> None:
    responses = run_against_server(
        [{"id": 1, "op": "rpq", "query": "Entry.Movie.Title"}]
    )
    assert len(responses) == 1
    assert responses[0]["status"] == "ok"
    assert len(responses[0]["result"]) > 0


def test_pipelined_requests_one_connection() -> None:
    responses = run_against_server(
        [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "rpq", "query": "Entry.Movie.Title"},
            {"id": 3, "op": "lorel", "query": "select m.Title from DB.Entry.Movie m"},
            {"id": 4, "op": "stats"},
        ]
    )
    by_id = {r["id"]: r for r in responses}
    assert set(by_id) == {1, 2, 3, 4}
    assert all(r["status"] == "ok" for r in responses)


def test_bad_query_then_connection_still_usable() -> None:
    responses = run_against_server(
        [
            {"id": 1, "op": "rpq", "query": "((("},
            {"id": 2, "op": "ping"},
        ]
    )
    by_id = {r["id"]: r for r in responses}
    assert by_id[1]["status"] == "error"
    assert by_id[2]["status"] == "ok"


def test_frames_larger_than_one_read_are_reassembled() -> None:
    # the server reads into a 64 KiB buffer: this frame spans five reads
    padded = {"id": 1, "op": "ping", "pad": "x" * 300_000}
    responses = run_against_server([padded, {"id": 2, "op": "ping"}])
    assert sorted((r["id"], r["result"]) for r in responses) == [(1, "pong"), (2, "pong")]


def test_unhashable_op_is_refused_and_connection_still_usable() -> None:
    # an unhashable op or kind must not reach a set lookup: its TypeError
    # would kill the handler, and the ping would get no response
    for bad in (
        {"id": 1, "op": ["rpq"], "query": "E"},
        {"id": 1, "op": "apply", "mutations": [{"kind": {}}]},
    ):
        responses = run_against_server([bad, {"id": 2, "op": "ping"}])
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["status"] == "error"
        assert by_id[1]["error_type"] == "ProtocolError"
        assert by_id[2]["status"] == "ok"
        assert by_id[2]["result"] == "pong"


def test_a_connection_closed_early_names_the_missing_responses() -> None:
    # a stub server answers the first of two requests, then hangs up:
    # the client used to return the one response as if that were all
    async def answer_one(reader, writer) -> None:
        decoder = FrameDecoder()
        frames: list[dict] = []
        while len(frames) < 2:
            frames.extend(decoder.feed(await reader.read(65536)))
        writer.write(encode_frame({"id": frames[0]["id"], "status": "ok", "result": "pong"}))
        await writer.drain()
        writer.close()

    async def scenario() -> None:
        server = await asyncio.start_server(answer_one, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            with pytest.raises(ConnectionError, match="1 of 2 responses missing"):
                await request_over_socket(
                    "127.0.0.1", port, [{"id": 1, "op": "ping"}, {"id": 2, "op": "ping"}]
                )

    asyncio.run(scenario())


def test_remote_cli_exits_2_on_a_connection_closed_early(capsys) -> None:
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)

    thread = threading.Thread(target=hang_up)
    thread.start()
    try:
        code = main(["remote", "Entry", "--server-port", str(listener.getsockname()[1])])
    finally:
        thread.join()
        listener.close()
    assert code == 2
    assert "1 of 1 responses missing" in capsys.readouterr().err


def test_engine_bug_still_gets_a_response_frame(monkeypatch) -> None:
    # before the fault boundary caught untyped exceptions, this one killed
    # the connection's driver task and the client waited out its own timeout
    def broken(*args, **kwargs):
        raise TypeError("engine bug")

    monkeypatch.setattr("repro.service.server.where_is", broken)
    requests = [{"id": 1, "op": "find", "query": "Title"}, {"id": 2, "op": "ping"}]

    async def scenario() -> "list[dict]":
        service = QueryService(generate_movies(5, seed=1), metrics=MetricsRegistry())
        server = AsyncQueryServer(service)
        await server.start()
        try:
            return await asyncio.wait_for(
                request_over_socket("127.0.0.1", server.bound_port, requests), 10
            )
        finally:
            await server.stop()

    by_id = {r["id"]: r for r in asyncio.run(scenario())}
    assert by_id[1]["status"] == "error"
    assert by_id[1]["error_type"] == "InternalError"
    assert by_id[2]["status"] == "ok"


def test_protocol_error_drops_connection_with_typed_frame() -> None:
    async def scenario() -> dict:
        service = QueryService(generate_movies(5, seed=1), metrics=MetricsRegistry())
        server = AsyncQueryServer(service)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            bad = b"\xff\xffnot json"
            writer.write(len(bad).to_bytes(4, "big") + bad)
            await writer.drain()
            decoder = FrameDecoder()
            frames: list[dict] = []
            while not frames:
                data = await reader.read(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
            # server closes the broken connection after the error frame
            assert await reader.read(65536) == b""
            writer.close()
            return frames[0]
        finally:
            await server.stop()

    frame = asyncio.run(scenario())
    assert frame["status"] == "error"
    assert frame["error_type"] == "ProtocolError"


def test_session_table_sheds_excess_connections() -> None:
    async def scenario() -> dict:
        service = QueryService(
            generate_movies(5, seed=1), max_sessions=1, metrics=MetricsRegistry()
        )
        server = AsyncQueryServer(service)
        await server.start()
        try:
            r1, w1 = await asyncio.open_connection("127.0.0.1", server.bound_port)
            w1.write(encode_frame({"id": 1, "op": "ping"}))
            await w1.drain()
            decoder = FrameDecoder()
            first: list[dict] = []
            while not first:
                first.extend(decoder.feed(await r1.read(65536)))
            assert first[0]["status"] == "ok"

            # the second connection is over the session cap
            r2, w2 = await asyncio.open_connection("127.0.0.1", server.bound_port)
            decoder2 = FrameDecoder()
            shed: list[dict] = []
            while not shed:
                data = await r2.read(65536)
                if not data:
                    break
                shed.extend(decoder2.feed(data))
            w1.close()
            w2.close()
            return shed[0]
        finally:
            await server.stop()

    frame = asyncio.run(scenario())
    assert frame["status"] == "overloaded"
    assert frame["reason"] == "sessions_full"


def test_concurrent_slow_queries_share_the_loop() -> None:
    # '#' walks everything reachable -- slow enough to interleave
    responses = run_against_server(
        [{"id": i, "op": "rpq", "query": "#"} for i in range(4)],
        max_inflight=2,
        max_queue=4,
    )
    assert len(responses) == 4
    assert all(r["status"] == "ok" for r in responses)
    results = [tuple(r["result"]) for r in responses]
    assert len(set(results)) == 1  # identical answers regardless of order
