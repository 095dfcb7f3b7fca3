"""The closed-loop client, the servers it talks to, and one round.

One client, one TCP connection, one request in flight: interactive
callers wait for their reply, and ``AsyncQueryServer`` is a
single-threaded event loop, so a second connection would add queueing,
not parallelism.  The client speaks the length-prefixed JSON protocol
with its own ten-line codec -- it shares no code with the server it
checks, and in the traced round its work stays out of the server's spans.

A round is: copy the pristine store -> start a server on the copy ->
warm every template -> replay the timed sequence -> read the server's
cpu, peak rss and ``stats`` -> untimed post-reads -> stop the server ->
recover the directory (durability check, reopen timing).  The server is
a real ``python -m repro serve --data-dir`` child that the round ends
with ``SIGKILL`` (:class:`ChildServer`), or, for the traced run, the
same service on a thread of this process (:class:`InProcessServer`).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import recover
from manifest import END_TO_END, OP_CLASSES
from workloads import Plan, Request

from repro.storage.mvcc import CHECKPOINT_NAME, WAL_NAME, VersionedGraphStore

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
SERVER_START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0
_LEN = struct.Struct(">I")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- the client -----------------------------------------------------------------


class Client:
    """One connection; :meth:`call` sends a request and waits for its reply."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.next_id = 1
        self.tracer = None  # set by the traced round

    def _read_exact(self, size: int) -> bytes:
        buf = bytearray(size)
        view = memoryview(buf)
        got = 0
        while got < size:
            n = self.sock.recv_into(view[got:])
            if n == 0:
                raise ConnectionError("server closed the connection")
            got += n
        return bytes(buf)

    def encode(self, body: dict) -> tuple[int, bytes]:
        """-> (request id, wire frame); ids go up in encoding order."""
        rid = self.next_id
        self.next_id += 1
        payload = json.dumps({**body, "id": rid}, separators=(",", ":")).encode()
        return rid, _LEN.pack(len(payload)) + payload

    def exchange(self, rid: int, frame: bytes) -> tuple[bytes, int]:
        """Send one frame, wait for its reply -> (response payload, latency ns).

        Latency runs from the first request byte handed to the socket to
        the last response byte read from it; encoding and decoding are
        outside it, and in the timed phase outside the loop altogether.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.request_begin(rid)
        start = time.perf_counter_ns()
        self.sock.sendall(frame)
        (size,) = _LEN.unpack(self._read_exact(_LEN.size))
        raw = self._read_exact(size)
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.request_end()
        return raw, elapsed

    @staticmethod
    def decode(rid: int, raw: bytes) -> dict:
        response = json.loads(raw)
        if response.get("id") != rid:
            raise ConnectionError(f"response id {response.get('id')} for request {rid}")
        return response

    def call(self, body: dict) -> dict:
        """One untimed request: encode, exchange, decode."""
        rid, frame = self.encode(body)
        return self.decode(rid, self.exchange(rid, frame)[0])

    def close(self) -> None:
        self.sock.close()


# -- the servers ----------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class ChildServer:
    """``python -m repro serve --data-dir DIR --port 0`` as a child process."""

    def __init__(self, data_dir: Path) -> None:
        self.log = open(data_dir.with_suffix(".stderr"), "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=child_env(),
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                self.log.seek(0)
                raise RuntimeError(f"server did not start: {line!r} {self.log.read()[-2000:]}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise
        self.pid = self.proc.pid
        self.plan_cache_baseline = (0, 0)

    def stop(self) -> None:
        """SIGKILL: the crash the durability check recovers from."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class InProcessServer:
    """The same service and TCP front-end on a thread of this process."""

    def __init__(self, data_dir: Path) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.service import AsyncQueryServer, QueryService

        self.pid = os.getpid()  # cpu and rss below include the client thread
        self.store = VersionedGraphStore(data_dir)
        self.service = QueryService(store=self.store, metrics=MetricsRegistry())
        cache = self.service.plan_cache.stats()  # its counters are process-wide
        self.plan_cache_baseline = (cache["hits"], cache["misses"])
        self._ready = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._error: "BaseException | None" = None

        async def serve() -> None:
            server = AsyncQueryServer(self.service)
            await server.start()
            self.port = server.bound_port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await server.stop()

        def run() -> None:
            try:
                asyncio.run(serve())
            except Exception as exc:  # surfaced by __init__
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(target=run, name="e2e-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(SERVER_START_TIMEOUT) or self._error is not None:
            self.store.close()
            raise RuntimeError(f"in-process server did not start: {self._error!r}")

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(SERVER_START_TIMEOUT)
        self.store.close()
        if self._thread.is_alive():
            raise RuntimeError("in-process server did not stop")


# -- one round --------------------------------------------------------------------


def cpu_probe_ms() -> float:
    """A fixed pure-Python loop, timed: how fast this machine is right now.

    Recorded beside every round so a reader can tell a slow round from a
    slow neighbour; it never enters a metric.
    """
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return (time.perf_counter() - start) * 1e3


@dataclass
class Round:
    """What one round measured; latencies in ns per key, the rest raw."""

    setup_s: float = 0.0
    probe_ms: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    recover_s: float = 0.0
    disk_bytes: int = 0
    checkpoint_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: dict[str, list[int]] = field(default_factory=dict)
    key_class: dict[str, str] = field(default_factory=dict)
    request_bytes: int = 0
    response_bytes: int = 0
    sql_answered: int = 0
    rpq_native: int = 0
    rpq_edges: int = 0
    rpq_results: int = 0
    rpq_supersteps: int = 0
    stats: dict = field(default_factory=dict)
    plan_cache: tuple[int, int] = (0, 0)  # hits, misses over the server's life
    recovery: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def _check(request: Request, response: dict) -> "str | None":
    """Why ``response`` is wrong for ``request``, or None."""
    if response.get("status") != "ok":
        return f"{request.key}: status {response.get('status')} {response.get('error', '')}"
    if response.get("result") != request.expect:
        return f"{request.key}: answer differs from the oracle"
    return None


def _tally(out: Round, plan: Plan, frames, raws, elapsed) -> None:
    """Check every timed response against the oracle; keep what passed."""
    out.request_bytes = sum(len(frame) for _, frame in frames)
    out.response_bytes = sum(_LEN.size + len(raw) for raw in raws)
    for request, (rid, _), raw, ns in zip(plan.timed, frames, raws, elapsed):
        response = Client.decode(rid, raw)
        out.attempted += 1
        out.key_class[request.key] = request.cls
        problem = _check(request, response)
        if problem:
            out.failures.append(problem)
            continue
        out.latencies.setdefault(request.key, []).append(ns)
        if response.get("engine") == "sql":
            out.sql_answered += 1
        elif request.cls == "rpq" and "ops" in response:
            out.rpq_native += 1
            out.rpq_edges += response["ops"]
            out.rpq_results += len(response["result"])
            out.rpq_supersteps += response["supersteps"]


def _recover(
    out: Round, plan: Plan, data_dir: Path, durable_bytes: "int | None",
    in_process: bool, cycles: int,
) -> None:
    """Durability: the torn copy must recover exactly the acknowledged prefix."""
    out.attempted += 1
    if in_process:
        # one reopen, for its spans; the in-process time is not a metric
        found = recover.check_and_time(data_dir, durable_bytes, 1, min_seconds=0)
    else:
        command = [sys.executable, str(HERE / "recover.py"), str(data_dir),
                   "--cycles", str(cycles)]
        if durable_bytes is not None:
            command += ["--durable-bytes", str(durable_bytes)]
        done = subprocess.run(
            command, capture_output=True, text=True, env=child_env(), timeout=REQUEST_TIMEOUT
        )
        if done.returncode != 0:
            raise RuntimeError(f"recover helper failed: {done.stderr[-2000:]}")
        found = json.loads(done.stdout)
    out.recover_s = min(found["times"])
    out.recovery = {k: v for k, v in found.items() if k != "markers"}
    if found["version"] != plan.acked_version:
        out.failures.append(
            f"recovered version {found['version']}, acknowledged {plan.acked_version}"
        )
    if found["markers"] != plan.markers:
        out.failures.append(
            f"recovered {len(found['markers'])} marker edges, acknowledged {len(plan.markers)}"
        )


def run_round(
    plan: Plan,
    base_dir: Path,
    work: Path,
    *,
    in_process: bool = False,
    tracer=None,
    recover_cycles: int = 3,
) -> Round:
    """One round of ``plan`` on a fresh copy of ``base_dir``."""
    out = Round()
    data_dir = work / "store"
    shutil.copytree(base_dir, data_dir)
    durable_bytes: "int | None" = None
    server = None
    client = None
    gc_was_enabled = gc.isenabled()
    try:
        start = time.perf_counter()
        server = (InProcessServer if in_process else ChildServer)(data_dir)
        client = Client(server.port)
        client.tracer = tracer
        for request in plan.warmup:
            out.attempted += 1
            problem = _check(request, client.call(request.body))
            if problem:
                out.failures.append("warm-up " + problem)
        out.setup_s = time.perf_counter() - start

        if tracer is not None:
            tracer.phase = "timed"
        wal_path = data_dir / WAL_NAME
        frames = [client.encode(request.body) for request in plan.timed]
        raws: list[bytes] = []
        elapsed: list[int] = []
        probe = cpu_probe_ms()
        gc.collect()
        gc.disable()  # a client-side collection pause is not server latency
        try:
            cpu0 = cpu_seconds(server.pid)
            phase_start = time.perf_counter()
            for index, (rid, frame) in enumerate(frames):
                raw, ns = client.exchange(rid, frame)
                raws.append(raw)
                elapsed.append(ns)
                if index == plan.probe_after:
                    # the frame was flushed to the OS before the reply: this is
                    # the log's size at the last acknowledged-durable commit
                    durable_bytes = wal_path.stat().st_size
            out.wall_s = time.perf_counter() - phase_start
            out.cpu_s = cpu_seconds(server.pid) - cpu0
        finally:
            if gc_was_enabled:
                gc.enable()
        out.probe_ms = (probe + cpu_probe_ms()) / 2
        out.rss_mb = peak_rss_mb(server.pid)

        if tracer is not None:
            tracer.phase = "post"
        _tally(out, plan, frames, raws, elapsed)
        out.stats = client.call({"op": "stats"}).get("result", {})
        cache = out.stats.get("plan_cache", {})
        out.plan_cache = (
            cache.get("hits", 0) - server.plan_cache_baseline[0],
            cache.get("misses", 0) - server.plan_cache_baseline[1],
        )
        for request in plan.post:
            out.attempted += 1
            problem = _check(request, client.call(request.body))
            if problem:
                out.failures.append("post " + problem)
        edges = out.stats.get("store", {}).get("edges")
        if edges != plan.final_edges:
            out.failures.append(f"server holds {edges} edges, shadow {plan.final_edges}")
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    out.checkpoint_bytes = (data_dir / CHECKPOINT_NAME).stat().st_size
    out.disk_bytes = out.checkpoint_bytes + wal_path.stat().st_size
    if tracer is not None:
        tracer.phase = "recover"
    _recover(out, plan, data_dir, durable_bytes, in_process, recover_cycles)
    shutil.rmtree(data_dir)
    return out


# -- aggregation ------------------------------------------------------------------


def latency_ms(rnd: Round, cls: "str | None" = None) -> float:
    """Geometric mean over the round's latency keys of each key's median.

    A pooled median of a multi-modal mix sits on a class boundary and
    jumps; per-key medians are each unimodal, and the geometric mean
    weighs a 10 % change of a cheap key like one of a dear key.
    """
    medians = [
        statistics.median(values) / 1e6
        for key, values in rnd.latencies.items()
        if cls is None or rnd.key_class[key] == cls
    ]
    return statistics.geometric_mean(medians) if medians else 0.0


def tail_ms(rounds: "list[Round]", cls: str) -> tuple[float, float, int]:
    """-> (latency ms, percentile, samples): the highest percentile of the
    class's pooled samples that still has ten samples beyond it."""
    pooled = sorted(
        ns
        for rnd in rounds
        for key, values in rnd.latencies.items()
        if rnd.key_class[key] == cls
        for ns in values
    )
    if len(pooled) <= 10:
        return 0.0, 0.0, len(pooled)
    index = len(pooled) - 11
    return pooled[index] / 1e6, 100.0 * (index + 1) / len(pooled), len(pooled)


def end_to_end(rounds: "list[Round]", plan: Plan) -> dict[str, dict]:
    """Every end-to-end metric: its best round, every round's value beside it.

    The best round (lowest, or highest for a rate) is the one the host
    disturbed least.  On the shared 2-vCPU guest this was written on, a
    neighbour slows whole rounds by 1.2-1.9x for tens of seconds at a time;
    ten-seed spreads of the median over rounds reached 33 % in such a spell
    where the best round stayed within 21 % (2-8 % on a quiet host).
    """
    per_round = {
        "setup_s": [r.setup_s for r in rounds],
        "ops_per_s": [r.ok_ops / r.wall_s for r in rounds],
        "p50_ms": [latency_ms(r) for r in rounds],
        "recover_s": [r.recover_s for r in rounds],
        "disk_bytes_per_edge": [r.disk_bytes / plan.final_edges for r in rounds],
        "server_rss_mb": [r.rss_mb for r in rounds],
        "server_cpu_ms_per_op": [1e3 * r.cpu_s / max(1, r.ok_ops) for r in rounds],
    }
    best = {name: max if better == "higher" else min for name, _, better, _ in END_TO_END}
    return {
        name: {"value": best[name](values), "rounds": values}
        for name, values in per_round.items()
    }


def counters(plain: Round, plan: Plan) -> dict[str, float]:
    """The exact-count and per-class per-layer metrics of one untraced round."""
    ops = max(1, plain.ok_ops)
    hits, misses = plain.plan_cache
    governor = plain.stats.get("governor", {})
    admitted = governor.get("admitted", 0)
    shed = governor.get("shed", 0)
    reads = sum(len(v) for k, v in plain.latencies.items() if plain.key_class[k] != "apply")
    metrics = {
        "automata.plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "automata.product.edges_scanned_per_result":
            plain.rpq_edges / plain.rpq_results if plain.rpq_results else 0.0,
        "automata.product.supersteps_per_query":
            plain.rpq_supersteps / plain.rpq_native if plain.rpq_native else 0.0,
        "service.protocol.request_bytes_per_op": plain.request_bytes / ops,
        "service.protocol.response_bytes_per_op": plain.response_bytes / ops,
        "service.governor.queued_ratio":
            governor.get("queued", 0) / admitted if admitted else 0.0,
        "service.governor.shed_ratio": shed / (admitted + shed) if admitted + shed else 0.0,
        "service.server.sql_answered_ratio": plain.sql_answered / reads if reads else 0.0,
        "storage.mvcc.checkpoint_bytes_per_edge": plain.checkpoint_bytes / plan.final_edges,
        "storage.wal.replayed_records": plain.recovery.get("replayed_records", 0),
    }
    for cls in OP_CLASSES:
        metrics[f"service.server.{cls}_p50_ms"] = latency_ms(plain, cls)
        metrics[f"service.server.{cls}_tail_ms"] = tail_ms([plain], cls)[0]
    return metrics
