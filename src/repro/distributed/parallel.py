"""True parallel distributed RPQ: OS-process sites over one shared snapshot.

:mod:`~repro.distributed.decompose` *simulates* Suciu's BSP decomposition
in one process; this module runs it for real.  Sites are OS processes
(spawn-started, so the runtime is fork-safety-agnostic) that attach the
same shared-memory CSR snapshot (:mod:`repro.core.shared`) zero-copy and
expand their local ``(node, DFA state)`` frontiers against it; boundary
configurations travel as batched ``array('q')`` messages through the
parent, which plays the network.

The protocol per query:

1. the parent compiles the pattern to a :class:`~repro.automata.product.
   DensePlan` -- a deterministic, picklable DFA over the snapshot's
   interned alphabet, so every worker agrees what state ``3`` means and
   a configuration travels as the single int ``pos * num_states + state``;
2. each **superstep**, the parent delivers every pending batch through
   its site's :class:`~repro.distributed.decompose.SiteRuntime` circuit
   breaker (the same guarded-delivery protocol as the simulation; a dead
   site's work is dropped and reported, never crashes the query), then
   workers drain their frontiers *asynchronously* -- local expansion is
   depth-first to exhaustion, only cross-site edges wait for the barrier;
3. matches are recorded by the **sender** of a cross edge (the edge's
   existence is local knowledge), which is exactly what makes the answer
   under dead sites equal the centralized answer over
   ``without_sites(dead)`` -- the oracle the tests pin;
4. between supersteps the parent checkpoints an optional cooperative
   control (deadline / budget / cancellation), returning the matches so
   far as a sound lower bound when interrupted.

Per-site dedup differs from the simulation in one honest way: each site
knows only the configurations *it* has seen or sent, so two sites can
both message the same boundary configuration (the owner expands it
once).  The simulation's global ``seen`` set is knowledge no real
distributed system has; message counts here are what the wire would
carry.

``inline=True`` runs the same driver, worker kernels, and breaker
protocol without processes or shared memory -- the hypothesis equality
suite uses it (hundreds of examples per run; process spawn would
dominate), and it doubles as the single-process reference for the
speedup accounting in experiment E17.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..automata.product import (
    DensePlan,
    _INTERRUPT_KINDS,
    compile_dense,
    interrupted_completeness,
)
from ..core.frozen import FrozenGraph
from ..obs.metrics import MetricsRegistry
from ..resilience import Completeness, completeness_of
from .decompose import SiteRuntime
from .partition import Partition, build_partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.shared import SharedGraphDescriptor

__all__ = [
    "PARALLEL_METRICS",
    "ParallelError",
    "ParallelResult",
    "ParallelRpqPool",
    "ParallelStats",
    "SiteWorker",
    "parallel_rpq",
]

#: Process-wide observability for the parallel runtime (``repro stats``).
PARALLEL_METRICS = MetricsRegistry()

#: Seconds the parent waits for a worker's superstep reply before giving up.
DEFAULT_REPLY_TIMEOUT = 120.0


class ParallelError(RuntimeError):
    """The worker pool is unusable (not started, closed, or a worker died)."""


@dataclass
class ParallelStats:
    """BSP observables of one parallel evaluation.

    Mirrors :class:`~repro.distributed.decompose.DistributedStats` --
    ``work[r][s]`` counts edges scanned by site ``s`` in superstep ``r``
    -- plus the straggler ratio the real runtime makes measurable: per
    superstep, the slowest site's work over the mean across active
    sites, averaged over supersteps.  1.0 means perfectly even rounds;
    large values mean the barrier waits on one hot site.
    """

    num_sites: int = 0
    strategy: str = ""
    work: list[list[int]] = field(default_factory=list)
    messages: int = 0
    messages_per_site: list[int] = field(default_factory=list)

    @property
    def supersteps(self) -> int:
        return len(self.work)

    @property
    def total_work(self) -> int:
        return sum(sum(round_work) for round_work in self.work)

    @property
    def makespan(self) -> int:
        return sum(max(round_work) if round_work else 0 for round_work in self.work)

    @property
    def straggler_ratio(self) -> float:
        ratios = []
        for round_work in self.work:
            active = [w for w in round_work if w > 0]
            if active:
                ratios.append(max(active) * len(active) / sum(active))
        return sum(ratios) / len(ratios) if ratios else 1.0


@dataclass(frozen=True)
class ParallelResult:
    """Matched nodes plus the run's accounting and degradation report."""

    nodes: frozenset[int]
    stats: ParallelStats
    completeness: Completeness


class SiteWorker:
    """One site's expansion kernel over (a view of) the frozen snapshot.

    Pure compute state -- no queues, no processes -- shared verbatim by
    the worker-process main loop and the inline executor, so both modes
    run byte-for-byte the same kernel.  Configurations are single ints
    (``pos * num_states + state``); ``seen`` holds every config this
    site has expanded *or* sent, which is all the dedup knowledge a real
    site can have.

    The kernel walks the *flattened* per-label partition table
    (``pb_off``/``plid``/``pstart``/``pidx`` -- the same vectors the
    shared segment packs) rather than the raw edge range: one dense
    transition probe per ``(node, label)`` bucket either advances the
    automaton for the whole bucket or skips every edge in it.  That is
    the label pruning the lazy kernel gets from ``live_exact_labels``,
    recovered as pure array arithmetic -- no dict probes, no tuple keys
    -- which is where the single-worker speedup over the centralized
    kernel comes from (experiment E17 quantifies it).
    """

    __slots__ = ("fg", "plan", "site_of", "parts", "site", "seen")

    def __init__(
        self, fg: FrozenGraph, plan: DensePlan, site_of, parts, site: int
    ) -> None:
        self.fg = fg
        self.plan = plan
        self.site_of = site_of
        self.parts = parts  # (pb_off, plid, pstart, pidx) flat vectors
        self.site = site
        self.seen: set[int] = set()

    def expand(self, batch) -> tuple[list[int], dict[int, array], int]:
        """Drain ``batch`` plus everything locally reachable from it.

        Returns ``(matched node ids, outbox per destination site, edges
        scanned)``.  Local expansion is depth-first to exhaustion --
        only cross-site successors stop and wait for the next superstep.
        Received configurations are *not* re-recorded as matches (their
        sender already did); only configurations first discovered here
        are.  ``ops`` counts edges in buckets the automaton could
        advance on -- the label-pruned work actually done, matching the
        budget contract of :class:`~repro.automata.product.RpqStepper`.
        """
        fg, plan = self.fg, self.plan
        index = fg.index
        pb_off, plid, pstart, pidx = self.parts
        trans, accepting = plan.trans, plan.accepting
        num_states, num_labels = plan.num_states, plan.num_labels
        site, site_of, seen = self.site, self.site_of, self.seen
        matched: list[int] = []
        outbox: dict[int, array] = {}
        ops = 0
        stack: list[int] = []
        for enc in batch:
            if enc not in seen:
                seen.add(enc)
                stack.append(enc)
        dense = index is None
        while stack:
            enc = stack.pop()
            pos, state = divmod(enc, num_states)
            bucket0, bucket1 = pb_off[pos], pb_off[pos + 1]
            if bucket0 == bucket1:
                continue
            base = state * num_labels
            for j in range(bucket0, bucket1):
                nxt = trans[base + plid[j]]
                if nxt < 0:
                    continue
                accept = accepting[nxt]
                span0, span1 = pstart[j], pstart[j + 1]
                ops += span1 - span0
                for dst in pidx[span0:span1]:
                    dst_pos = dst if dense else index[dst]  # dense: ids ARE positions
                    dst_enc = dst_pos * num_states + nxt
                    if dst_enc in seen:
                        continue
                    seen.add(dst_enc)
                    if accept:
                        matched.append(dst)
                    dst_site = site_of[dst_pos]
                    if dst_site == site:
                        stack.append(dst_enc)
                    else:
                        box = outbox.get(dst_site)
                        if box is None:
                            box = outbox[dst_site] = array("q")
                        box.append(dst_enc)
        return matched, outbox, ops

    def reset(self) -> None:
        self.seen = set()


def _worker_main(
    site: int,
    descriptor: "SharedGraphDescriptor",
    conn,
) -> None:
    """Worker-process entry point: attach, serve supersteps, detach.

    Spawn-safe by construction -- everything arrives pickled (the
    descriptor, dense plans, batches) and the CSR bytes come from the
    shared segment.  Transport is one duplex :func:`multiprocessing.Pipe`
    per worker rather than queues: ``Connection.send`` pickles and
    writes *synchronously*, where ``mp.Queue`` hands off to a feeder
    thread whose wake-up is at the mercy of the GIL switch interval --
    on a loaded core that is milliseconds of latency per message, which
    at supersteps x sites messages per query dominated the whole run.

    One :class:`SiteWorker` lives per in-flight query id; ``finish``
    drops it, ``stop`` exits the loop.  The attached segment is closed
    on the way out no matter how the loop ends.
    """
    from ..core.shared import attach

    snapshot = attach(descriptor)
    try:
        fg = snapshot.graph
        site_of = snapshot.field("site_of")
        parts = tuple(
            snapshot.field(name) for name in ("pb_off", "plid", "pstart", "pidx")
        )
        workers: dict[int, SiteWorker] = {}
        conn.send(("ready", site))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "query":
                _, qid, plan = message
                workers[qid] = SiteWorker(fg, plan, site_of, parts, site)
            elif kind == "step":
                _, qid, batch = message
                try:
                    matched, outbox, ops = workers[qid].expand(batch)
                except Exception as exc:  # surface, don't hang the barrier
                    conn.send(("error", site, qid, repr(exc)))
                else:
                    conn.send(("done", site, qid, matched, outbox, ops))
            elif kind == "finish":
                workers.pop(message[1], None)
    except EOFError:  # parent vanished; nothing to reply to
        pass
    finally:
        snapshot.close()


class ParallelRpqPool:
    """A persistent pool of site processes over one shared snapshot.

    Construction partitions the snapshot; :meth:`start` packs it into
    shared memory (with the ``pos -> site`` table riding along as an
    extra vector) and spawns one worker per site.  The pool then serves
    any number of queries -- plans compile per pattern, workers persist
    -- until :meth:`close` tears the processes and the segment down.
    Use as a context manager so the segment cannot outlive the run.

    ``inline=True`` serves the same queries with in-process
    :class:`SiteWorker`\\ s: no processes, no shared memory, identical
    results and statistics.  That is the mode for property tests and for
    measuring the decomposition overhead itself.
    """

    def __init__(
        self,
        fg: FrozenGraph,
        num_workers: int,
        *,
        strategy: str = "greedy",
        partition: "Partition | None" = None,
        inline: bool = False,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    ) -> None:
        if partition is not None and partition.num_sites != num_workers:
            raise ValueError(
                f"partition has {partition.num_sites} sites, pool wants {num_workers}"
            )
        self.fg = fg
        self.num_workers = num_workers
        self.partition = (
            partition
            if partition is not None
            else build_partition(fg, num_workers, strategy)
        )
        self.inline = inline
        self.reply_timeout = reply_timeout
        self._snapshot = None
        self._processes: list = []
        self._conns: list = []
        self._inline_workers: "list[SiteWorker] | None" = None
        self._started = False
        self._closed = False
        self._next_qid = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ParallelRpqPool":
        if self._started:
            return self
        if self._closed:
            raise ParallelError("pool is closed")
        if self.inline:
            from ..core.shared import flatten_partitions

            parts = flatten_partitions(self.fg)  # once, shared by all sites
            self._inline_workers = [
                SiteWorker(self.fg, None, self.partition.site_of, parts, site)  # type: ignore[arg-type]
                for site in range(self.num_workers)
            ]
        else:
            import multiprocessing as mp

            from ..core.shared import pack

            ctx = mp.get_context("spawn")
            self._snapshot = pack(
                self.fg, extras={"site_of": self.partition.site_of}
            )
            try:
                for site in range(self.num_workers):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(site, self._snapshot.descriptor, child_conn),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()  # the worker holds its end now
                    self._conns.append(parent_conn)
                    self._processes.append(proc)
                # Block until every worker has booted, attached the
                # segment, and said so.  Spawned interpreters take
                # hundreds of milliseconds each to import; without the
                # handshake that boot cost lands on the first query and
                # masquerades as runtime slowness.
                for site, conn in enumerate(self._conns):
                    if not conn.poll(max(self.reply_timeout, 60.0)):
                        raise ParallelError(f"worker {site} never came up")
                    try:
                        message = conn.recv()
                    except EOFError:
                        raise ParallelError(
                            f"worker {site} died during startup"
                        ) from None
                    if message[0] != "ready":  # pragma: no cover - protocol bug
                        raise ParallelError(
                            f"worker {site} sent {message[0]!r} before ready"
                        )
            except BaseException:
                self._teardown()
                raise
        self._started = True
        PARALLEL_METRICS.gauge("parallel_workers").set(self.num_workers)
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._started = False
        self._inline_workers = None
        self._teardown()

    def _teardown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):  # pragma: no cover
                pass
        for proc in self._processes:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._processes = []
        if self._snapshot is not None:
            self._snapshot.close()
            self._snapshot.unlink()
            self._snapshot = None

    def __enter__(self) -> "ParallelRpqPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- query driving -----------------------------------------------------

    def run(
        self,
        pattern,
        start: int | None = None,
        *,
        control=None,
        runtime: "SiteRuntime | None" = None,
        max_states: int = 4096,
    ) -> ParallelResult:
        """Evaluate one RPQ across the pool's sites.

        ``control`` follows the :meth:`~repro.automata.product.RpqStepper.
        run` contract (``checkpoint(ops)`` between supersteps, raising a
        typed resilience error to interrupt -- the interrupt becomes a
        partial result, never an exception).  ``runtime`` supplies the
        per-site circuit breakers and fault injector; by default a
        fault-free :class:`~repro.distributed.decompose.SiteRuntime` is
        built per query.  Results are identical to the centralized
        :func:`~repro.automata.product.rpq_nodes` over the same snapshot
        (the property the equality suite pins).
        """
        if not self._started:
            raise ParallelError("pool not started (use start() or a with block)")
        fg = self.fg
        plan = compile_dense(pattern, fg.labels_seq, max_states=max_states)
        if runtime is None:
            runtime = SiteRuntime(self.num_workers)
        qid = self._next_qid
        self._next_qid += 1

        stats = ParallelStats(
            num_sites=self.num_workers,
            strategy=self.partition.strategy,
            messages_per_site=[0] * self.num_workers,
        )
        results: set[int] = set()
        origin = fg.root if start is None else start
        origin_pos = fg._pos(origin)
        if plan.is_accepting(plan.start):
            results.add(origin)
        pending: dict[int, array] = {
            self.partition.site_of[origin_pos]: array(
                "q", [origin_pos * plan.num_states + plan.start]
            )
        }
        # boundary configs delivered once already count as messages for
        # every round after the first (the initial config is not a message)
        first_round = True

        if self.inline:
            workers = self._inline_workers
            assert workers is not None
            for worker in workers:
                worker.plan = plan  # type: ignore[attr-defined]
                worker.reset()
        else:
            for conn in self._conns:
                conn.send(("query", qid, plan))

        interrupted: Exception | None = None
        try:
            if control is not None:
                control.checkpoint(0)
            while pending:
                delivered: list[tuple[int, array]] = []
                for site in sorted(pending):
                    batch = pending[site]
                    if not first_round:
                        stats.messages += len(batch)
                        stats.messages_per_site[site] += len(batch)
                    if runtime.deliver(site, len(batch)):
                        delivered.append((site, batch))
                first_round = False
                round_work = [0] * self.num_workers
                if self.inline:
                    replies = [
                        (site, *self._inline_workers[site].expand(batch))
                        for site, batch in delivered
                    ]
                else:
                    for site, batch in delivered:
                        self._conns[site].send(("step", qid, batch))
                    replies = [
                        self._recv_reply(site, qid) for site, _ in delivered
                    ]
                pending = {}
                for site, matched, outbox, ops in replies:
                    results.update(matched)
                    round_work[site] = ops
                    for dst_site, box in outbox.items():
                        existing = pending.get(dst_site)
                        if existing is None:
                            pending[dst_site] = box
                        else:
                            existing.extend(box)
                if any(round_work) or delivered:
                    stats.work.append(round_work)
                if control is not None:
                    control.checkpoint(sum(round_work))
        except tuple(_INTERRUPT_KINDS) as exc:
            interrupted = exc
        finally:
            if not self.inline:
                for conn in self._conns:
                    conn.send(("finish", qid))

        PARALLEL_METRICS.counter("parallel_queries").inc()
        PARALLEL_METRICS.counter("parallel_supersteps").inc(stats.supersteps)
        PARALLEL_METRICS.counter("parallel_messages").inc(stats.messages)
        PARALLEL_METRICS.counter("parallel_work").inc(stats.total_work)
        PARALLEL_METRICS.gauge("parallel_straggler_ratio").set(stats.straggler_ratio)

        completeness = runtime.completeness()
        if interrupted is not None:
            lost = sum(len(batch) for batch in pending.values())
            completeness = Completeness.merge(
                interrupted_completeness(
                    interrupted, getattr(control, "key", "parallel-rpq"), lost
                ),
                completeness,
            )
        else:
            completeness = Completeness.merge(completeness, completeness_of(fg))
        return ParallelResult(
            nodes=frozenset(results), stats=stats, completeness=completeness
        )

    def _recv_reply(self, site: int, qid: int):
        conn = self._conns[site]
        while True:
            if not conn.poll(self.reply_timeout):
                dead = [
                    s
                    for s, proc in enumerate(self._processes)
                    if not proc.is_alive()
                ]
                raise ParallelError(
                    f"no reply from worker {site} within {self.reply_timeout}s"
                    + (f"; dead workers: {dead}" if dead else "")
                )
            try:
                message = conn.recv()
            except EOFError:
                raise ParallelError(f"worker {site} died mid-query") from None
            kind = message[0]
            if kind == "error":
                raise ParallelError(f"worker {site} failed: {message[3]}")
            _, _site, reply_qid, matched, outbox, ops = message
            if reply_qid != qid:  # stale reply from an interrupted query
                continue
            return site, matched, outbox, ops


def parallel_rpq(
    fg: FrozenGraph,
    pattern,
    start: int | None = None,
    *,
    num_workers: int = 4,
    strategy: str = "greedy",
    inline: bool = False,
    control=None,
    runtime: "SiteRuntime | None" = None,
) -> ParallelResult:
    """One-shot convenience: pool up, run one query, tear down.

    For repeated queries build a :class:`ParallelRpqPool` once -- the
    pool amortizes partitioning, the shared-memory pack, and worker
    spawn across queries; this helper pays all three per call.
    """
    with ParallelRpqPool(
        fg, num_workers, strategy=strategy, inline=inline
    ) as pool:
        return pool.run(pattern, start, control=control, runtime=runtime)
