"""Command-line interface: ``python -m repro <command> ...``.

A small working surface over the library for shell use:

* ``render FILE``                 -- pretty-print a database
* ``dot FILE``                    -- emit Graphviz DOT
* ``query FILE QUERY``            -- run a UnQL query (result rendered)
* ``lorel FILE QUERY``            -- run a Lorel query (rows printed)
* ``datalog FILE PROGRAM PRED``   -- run a datalog program, print one predicate
* ``find FILE VALUE``             -- the section-1.3 "where is it" query
* ``paths FILE [DEPTH]``          -- DataGuide path vocabulary
* ``schema FILE``                 -- infer and describe a schema
* ``stats FILE [--json]``         -- node/edge/label statistics
* ``profile FILE QUERY``          -- run a query and print its
  :class:`~repro.obs.QueryProfile` (docs/OBSERVABILITY.md)
* ``chaos FILE PATTERN``          -- distributed evaluation under injected
  site failures: partial answers + completeness report (docs/RESILIENCE.md)
* ``serve FILE``                  -- long-lived query server over TCP
  (admission control, deadlines, cancellation; docs/SERVICE.md)
* ``remote QUERY``                -- one query against a running server
  (``--engine``, ``--deadline``, ``--budget``, ``--profile``)

``FILE`` is JSON (self-describing nested data, loaded via
:func:`repro.core.builder.from_obj`) or a binary ``.ssd`` graph written by
:mod:`repro.storage`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .browse import where_is
from .core.builder import from_obj, render
from .core.convert import graph_to_oem
from .core.graph import Graph, to_dot
from .core.labels import LabelKind
from .datalog import run_on_graph
from .lorel import lorel, lorel_rows
from .schema.dataguide import DataGuide
from .schema.inference import infer_schema
from .storage import loads
from .unql import unql

__all__ = ["main"]


def load_database(path: "str | Path") -> Graph:
    """Load a database file: `.ssd` binary graphs or JSON text."""
    raw = Path(path).read_bytes()
    if raw[:4] == b"SSD1":
        return loads(raw)
    return from_obj(json.loads(raw.decode("utf-8")))


def _cmd_render(args) -> int:
    print(render(load_database(args.file), max_depth=args.depth))
    return 0


def _cmd_dot(args) -> int:
    print(to_dot(load_database(args.file)))
    return 0


def _cmd_query(args) -> int:
    g = load_database(args.file)
    if args.engine == "sql":
        # compilable root-level members run on sqlite, the rest stay
        # native member by member
        from .sqlbackend import unql_sql
        from .unql import parse_query

        result = unql_sql(parse_query(args.query), {"db": g})
    else:
        result = unql(args.query, db=g)
    print(render(result))
    return 0


def _cmd_lorel(args) -> int:
    db = graph_to_oem(load_database(args.file))
    if args.engine == "sql":
        from .sqlbackend import lorel_sql

        answer = lorel_sql(args.query, db)  # a refusal surfaces as an error
    else:
        answer = lorel(args.query, db)
    for i, row in enumerate(lorel_rows(answer)):
        print(f"row {i}: {row}")
    return 0


def _cmd_datalog(args) -> int:
    program = Path(args.program).read_text(encoding="utf-8")
    rows = run_on_graph(program, load_database(args.file), args.predicate)
    for row in sorted(rows, key=repr):
        print(row)
    print(f"({len(rows)} facts)", file=sys.stderr)
    return 0


def _cmd_traverse(args) -> int:
    from .unql import traverse

    result = traverse(args.statement, db=load_database(args.file))
    print(render(result))
    return 0


def _cmd_find(args) -> int:
    value: object = args.value
    try:
        value = json.loads(args.value)
    except json.JSONDecodeError:
        pass  # treat as a plain string
    hits = where_is(load_database(args.file), value)
    for hit in hits:
        print(hit)
    return 0 if hits else 1


def _cmd_paths(args) -> int:
    guide = DataGuide(load_database(args.file))
    for path in guide.all_paths(args.depth):
        if path:
            print(".".join(str(lab) for lab in path))
    return 0


def _cmd_schema(args) -> int:
    g = load_database(args.file)
    schema = infer_schema(g)
    print(
        f"inferred schema: {schema.num_nodes} nodes, {schema.num_edges} "
        f"predicate edges (database: {g.num_nodes} nodes)"
    )
    for node in schema.nodes():
        for edge in schema.edges_from(node):
            print(f"  s{edge.src} --[{edge.predicate}]--> s{edge.dst}")
    return 0


def _cmd_stats(args) -> int:
    from .automata.plan_cache import PLAN_METRICS
    from .core.frozen import freeze
    from .obs.export import metrics_to_dict, to_json
    from .planner import GraphStatistics
    from .service.governor import SERVICE_METRICS
    from .index import probes  # noqa: F401 -- registers the probe_index_* counters
    from .sqlbackend import backend  # noqa: F401 -- registers the sql_image_built counter
    from .storage import STORAGE_METRICS

    g = load_database(args.file)
    by_kind: dict[str, int] = {}
    for edge in g.edges():
        by_kind[edge.label.kind.value] = by_kind.get(edge.label.kind.value, 0) + 1
    statistics = GraphStatistics.from_frozen(freeze(g)).as_dict()
    registries = (
        ("storage", STORAGE_METRICS),
        ("plan_cache", PLAN_METRICS),
        ("service", SERVICE_METRICS),
    )
    if args.json:
        payload = {
            "nodes": g.num_nodes,
            "edges": g.num_edges,
            "cyclic": g.has_cycle(),
            "labels": {k.value: by_kind[k.value] for k in LabelKind if k.value in by_kind},
            **{section: metrics_to_dict(registry) for section, registry in registries},
            "statistics": statistics,
        }
        print(to_json(payload))
        return 0
    print(f"nodes:  {g.num_nodes}")
    print(f"edges:  {g.num_edges}")
    print(f"cyclic: {g.has_cycle()}")
    for kind in LabelKind:
        if kind.value in by_kind:
            print(f"labels[{kind.value}]: {by_kind[kind.value]}")
    for section, registry in registries:
        for name, value in metrics_to_dict(registry).items():
            print(f"{section}[{name}]: {value}")
    for name, value in sorted(statistics.items()):
        print(f"statistics[{name}]: {value}")
    return 0


def _cmd_profile(args) -> int:
    """Run one query under profiling; print its operation counts.

    ``--engine`` picks the evaluator: ``rpq`` (path regex), ``lorel``,
    ``unql``, or ``find`` (the section-1.3 browse search).  ``--planner``
    consults the indexes: lorel pushes where-predicates into the value
    groups, and find probes the value index -- the output then carries
    their hit/miss accounting.  (rpq and unql always walk the kernel, so
    the flag changes nothing for them.)  ``--json`` emits via
    :mod:`repro.obs.export` for scripting.
    """
    from .automata.plan_cache import DEFAULT_PLAN_CACHE, PLAN_METRICS
    from .browse import find_value
    from .core.convert import graph_to_oem
    from .lorel import evaluate_lorel, parse_lorel
    from .obs import QueryProfile
    from .obs.export import metrics_to_dict, to_json
    from .unql import unql

    g = load_database(args.file)
    profile = QueryProfile()
    index_accounting: "dict[str, dict[str, int]] | None" = None
    if args.engine == "rpq":
        from .automata.product import rpq_nodes

        results = rpq_nodes(g, args.query, plan_cache=DEFAULT_PLAN_CACHE, profile=profile)
        preview = f"{len(results)} node(s)"
    elif args.engine == "lorel":
        db = graph_to_oem(g)
        indexes = None
        if args.planner:
            from .planner import oem_indexes_for

            indexes = oem_indexes_for(db)
        profile.query = args.query  # evaluate_lorel sees the AST, not the text
        result = evaluate_lorel(
            parse_lorel(args.query), db, indexes=indexes, profile=profile
        )
        if indexes is not None:
            index_accounting = {"oem_value_groups": indexes.accounting()}
        answer = result.get(result.lookup_name("Answer"))
        preview = f"answer with {len(answer.children)} member(s)"
    elif args.engine == "unql":
        result = unql(args.query, profile=profile, db=g, DB=g)
        preview = f"result graph: {result.num_nodes} node(s), {result.num_edges} edge(s)"
    else:  # find
        value: object = args.query
        try:
            value = json.loads(args.query)
        except json.JSONDecodeError:
            pass
        indexes = None
        if args.planner:
            from .index import GraphIndexes

            indexes = GraphIndexes(g)
        findings = find_value(g, value, indexes, profile=profile)
        if indexes is not None:
            index_accounting = indexes.accounting()
        preview = f"{len(findings)} finding(s)"
    if args.json:
        payload: dict[str, object] = {
            "profile": profile.as_dict(),
            "plan_cache": metrics_to_dict(PLAN_METRICS),
        }
        if index_accounting is not None:
            payload["indexes"] = index_accounting
        print(to_json(payload))
    else:
        print(f"{args.engine}: {preview}")
        for name, value in profile.as_dict().items():
            print(f"  {name}: {value}")
        for name, value in metrics_to_dict(PLAN_METRICS).items():
            print(f"  plan_cache[{name}]: {value}")
        if index_accounting is not None:
            for index_name, counts in sorted(index_accounting.items()):
                for name, value in sorted(counts.items()):
                    print(f"  indexes[{index_name}.{name}]: {value}")
    return 0


def _cmd_chaos(args) -> int:
    """Run a distributed RPQ under injected failures; print the report.

    Exit code 0 for an exact answer, 3 for a partial one -- scripts can
    tell a degraded run from a clean one.
    """
    from .distributed import SiteRuntime, distributed_rpq, partition_graph
    from .resilience import FaultInjector, RetryPolicy

    graph = load_database(args.file)
    dist = partition_graph(graph, args.sites, strategy=args.strategy)
    outages = {f"site:{s}" for s in (args.kill_site or [])}
    injector = FaultInjector(
        seed=args.seed, fail_rate=args.fail_rate, outages=outages
    )
    policy = RetryPolicy(max_attempts=args.retries, base_delay=0.01)
    runtime = SiteRuntime(
        dist, injector=injector, policy=policy, failure_threshold=args.threshold
    )
    results, stats = distributed_rpq(dist, args.pattern, runtime=runtime)
    report = runtime.completeness()
    print(f"sites: {args.sites} ({args.strategy}), pattern: {args.pattern}")
    print(
        f"matched {len(results)} node(s) in {stats.supersteps} superstep(s), "
        f"{stats.messages} message(s), total work {stats.total_work}"
    )
    print(report.describe())
    return 0 if report.complete else 3


def _open_store(directory, bootstrap=None):
    """Open (or bootstrap) a versioned store directory."""
    from .storage.mvcc import CHECKPOINT_NAME, WAL_NAME, VersionedGraphStore

    directory = Path(directory)
    fresh = not (directory / CHECKPOINT_NAME).exists() and not (
        directory / WAL_NAME
    ).exists()
    if fresh and bootstrap is not None:
        return VersionedGraphStore.create(directory, load_database(bootstrap))
    return VersionedGraphStore(directory)


def _cmd_serve(args) -> int:
    """Run the asyncio query server until interrupted (docs/SERVICE.md).

    ``--max-requests N`` exits after serving N requests -- how tests
    (and scripted demos) run a real-socket server with a bounded life.
    With ``--data-dir`` the server is writable: it serves (and accepts
    ``apply`` requests against) a durable versioned store, bootstrapped
    from ``file`` on first start.
    """
    import asyncio

    from .service import AsyncQueryServer, QueryService

    options = dict(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_sessions=args.max_sessions,
        default_deadline=args.deadline,
        default_budget=args.budget,
    )
    store = None
    if args.data_dir is not None:
        store = _open_store(args.data_dir, bootstrap=args.file)
        report = store.recovery
        if report.replayed_records or report.discarded_bytes:
            print(
                f"recovered v{report.commit_seq}: {report.replayed_records} "
                f"WAL records replayed, {report.discarded_bytes} torn bytes "
                "discarded",
                file=sys.stderr,
            )
        service = QueryService(store=store, **options)
    elif args.file is not None:
        service = QueryService(load_database(args.file), **options)
    else:
        print("error: serve needs a database file or --data-dir", file=sys.stderr)
        return 2

    async def run() -> None:
        server = AsyncQueryServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {args.host}:{server.bound_port}", flush=True)
        try:
            if args.max_requests is not None:
                while service._requests.value < args.max_requests:
                    await asyncio.sleep(0.02)
            else:
                await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_recover(args) -> int:
    """Open a store directory, report what recovery found, and exit.

    The exit code is the contract: 0 means the directory recovered to a
    consistent version (torn tails discarded are normal after a crash);
    2 (via the main error handler) means real corruption -- a checkpoint
    that fails its CRC is damage no WAL replay can repair.
    """
    store = _open_store(args.dir)
    try:
        report, stats = store.recovery, store.stats()
        payload = {
            "version": report.commit_seq,
            "checkpoint_seq": report.checkpoint_seq,
            "replayed_records": report.replayed_records,
            "discarded_bytes": report.discarded_bytes,
            "discarded_records": report.discarded_records,
            "nodes": stats["nodes"],
            "edges": stats["edges"],
        }
        if args.checkpoint:
            store.checkpoint()
            payload["checkpointed"] = True
        print(json.dumps(payload, indent=2, sort_keys=True))
    finally:
        store.close()
    return 0


def _cmd_mutate(args) -> int:
    """Apply a JSON mutation batch to a store directory, durably.

    The batch format is the service's ``apply`` op payload (a list of
    ``{"kind": "node"|"edge"|"root", ...}`` objects; see docs/SERVICE.md)
    -- the CLI and the server share one write dialect.
    """
    from .service.server import stage_mutations

    raw = (
        sys.stdin.read()
        if args.mutations == "-"
        else Path(args.mutations).read_text("utf-8")
    )
    mutations = json.loads(raw)
    if not isinstance(mutations, list) or not mutations:
        raise ValueError("mutations must be a non-empty JSON list")
    store = _open_store(args.dir, bootstrap=args.bootstrap)
    try:
        batch = store.batch()
        names = stage_mutations(batch, mutations)
        version = batch.commit(sync=True)
        print(json.dumps({"version": version, "nodes": names}, sort_keys=True))
    finally:
        store.close()
    return 0


def _cmd_remote(args) -> int:
    """Send one query to a running ``repro serve`` instance.

    Prints the response JSON; the exit code encodes the typed outcome
    so scripts can branch without parsing: 0 ok, 3 partial, 4 deadline,
    5 overloaded, 2 error (a connection closed before the response is
    one).
    """
    import asyncio

    from .obs.export import to_json
    from .service import request_over_socket

    request: dict = {"id": 1, "op": args.engine, "query": args.query}
    if args.deadline is not None:
        request["deadline"] = args.deadline
    if args.budget is not None:
        request["budget"] = args.budget
    if args.profile:
        request["profile"] = True
    response = asyncio.run(request_over_socket(args.host, args.server_port, [request]))[0]
    print(to_json(response))
    return {"ok": 0, "partial": 3, "deadline": 4, "overloaded": 5}.get(
        response.get("status"), 2
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semistructured data toolkit (Buneman, PODS 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="pretty-print a database")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("query", help="run a UnQL query")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument(
        "--engine",
        choices=["native", "sql", "auto"],
        default="native",
        help="evaluation engine: native traversal (auto is an alias), or the SQL backend",
    )
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("lorel", help="run a Lorel query")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument(
        "--engine",
        choices=["native", "sql", "auto"],
        default="native",
        help="evaluation engine: native (auto is an alias), or sql, which "
        "requires a compilable query",
    )
    p.set_defaults(fn=_cmd_lorel)

    p = sub.add_parser("datalog", help="run a datalog program")
    p.add_argument("file")
    p.add_argument("program", help="path to a .dl file")
    p.add_argument("predicate", help="predicate whose facts to print")
    p.set_defaults(fn=_cmd_datalog)

    p = sub.add_parser("traverse", help="restructure: replace/delete/collapse/shortcut")
    p.add_argument("file")
    p.add_argument("statement", help='e.g. "traverse db replace Movie => Film"')
    p.set_defaults(fn=_cmd_traverse)

    p = sub.add_parser("find", help="where is this value? (section 1.3)")
    p.add_argument("file")
    p.add_argument("value")
    p.set_defaults(fn=_cmd_find)

    p = sub.add_parser("paths", help="DataGuide path vocabulary")
    p.add_argument("file")
    p.add_argument("depth", type=int, nargs="?", default=4)
    p.set_defaults(fn=_cmd_paths)

    p = sub.add_parser("schema", help="infer a graph schema")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_schema)

    p = sub.add_parser("stats", help="database statistics")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("profile", help="run a query, print its operation counts")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument(
        "--engine",
        choices=["rpq", "lorel", "unql", "find"],
        default="rpq",
        help="evaluator to profile (default: rpq path regex)",
    )
    p.add_argument(
        "--planner",
        action="store_true",
        help="consult the indexes: lorel pushdown, find value index (rpq, unql: no effect)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "chaos",
        help="distributed query under injected site failures (resilience demo)",
    )
    p.add_argument("file")
    p.add_argument("pattern", help='path regex, e.g. "Entry.Movie.Title"')
    p.add_argument("--sites", type=int, default=4)
    p.add_argument("--strategy", choices=["bfs", "hash"], default="bfs")
    p.add_argument("--fail-rate", type=float, default=0.0, help="transient failure probability per site contact")
    p.add_argument("--kill-site", type=int, action="append", help="permanently dead site id (repeatable)")
    p.add_argument("--seed", type=int, default=0, help="fault schedule seed (reproducible chaos)")
    p.add_argument("--retries", type=int, default=4, help="max attempts per site contact")
    p.add_argument("--threshold", type=int, default=3, help="breaker trip threshold (consecutive failures)")
    p.set_defaults(fn=_cmd_chaos)


    p = sub.add_parser(
        "serve", help="serve queries over TCP (admission control, deadlines)"
    )
    p.add_argument("file", nargs="?", default=None,
                   help="database to serve (or to bootstrap --data-dir from)")
    p.add_argument("--data-dir", default=None,
                   help="versioned store directory: serve writable with WAL durability")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port (printed)")
    p.add_argument("--max-inflight", type=int, default=8, help="concurrent query slots")
    p.add_argument("--max-queue", type=int, default=16, help="bounded admission queue")
    p.add_argument("--max-sessions", type=int, default=64, help="connected client cap")
    p.add_argument("--deadline", type=float, default=None, help="default per-query deadline (s)")
    p.add_argument("--budget", type=int, default=None, help="default per-query op budget")
    p.add_argument("--max-requests", type=int, default=None, help="exit after N requests (tests)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("recover", help="recover a versioned store directory, print a report")
    p.add_argument("dir")
    p.add_argument("--checkpoint", action="store_true",
                   help="also fold the recovered WAL into a fresh checkpoint")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("mutate", help="apply a JSON mutation batch to a store directory")
    p.add_argument("dir")
    p.add_argument("mutations", help="JSON file of mutations ('-' reads stdin)")
    p.add_argument("--bootstrap", default=None,
                   help="database file to initialize an empty store from")
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser("remote", help="run one query against a repro serve instance")
    p.add_argument("query")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--server-port", type=int, required=True)
    p.add_argument(
        "--engine", choices=["rpq", "lorel", "unql", "find"], default="rpq"
    )
    p.add_argument("--deadline", type=float, default=None, help="per-query deadline (s)")
    p.add_argument("--budget", type=int, default=None, help="per-query op budget")
    p.add_argument("--profile", action="store_true", help="attach a QueryProfile")
    p.set_defaults(fn=_cmd_remote)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface library errors as clean CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
