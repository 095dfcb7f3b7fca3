"""Workload plans: the dataset, the request sequence, the expected answers.

A :class:`Plan` is everything one run needs, built once from
``(workload, seed, scale)`` and replayed identically by every round: the
base graph, the warm-up and timed request lists with the answer each
request must get, and the state the killed store must recover to.

The oracle is a shadow :class:`~repro.core.graph.Graph` kept here.  RPQ
answers come from ``naive_rpq`` (path enumeration, not the product
kernel the server runs); Lorel/UnQL/find answers from direct library
calls on the shadow.  In write workloads the answers of the templates a
commit touches are advanced by the commit's known effect (one new
``Entry.Movie.Title`` node) and the last version is checked against a
full evaluation of the final shadow, so a wrong increment cannot hide.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.automata.product import naive_rpq
from repro.browse import where_is
from repro.core.builder import to_obj
from repro.core.convert import graph_to_oem
from repro.core.graph import Graph
from repro.core.labels import string
from repro.datasets.movies import figure1, generate_movies
from repro.lorel import lorel, lorel_rows
from repro.unql import unql

#: the store's default ``checkpoint_every`` (the server is started without flags)
CHECKPOINT_EVERY = 1024

#: the service plan cache's capacity; ``fig1_adhoc``'s pool is 16x this
PLAN_CACHE_CAPACITY = 256
POOL_SIZE = 16 * PLAN_CACHE_CAPACITY

#: name -> (op class, wire fields, naive_rpq path bound or None)
TEMPLATES = {
    "rpq_chain": ("rpq", {"query": "Entry.Movie.Title"}, 3),
    "rpq_closure": ("rpq", {"query": "Entry.Movie.(References)*.Title"}, 12),
    "rpq_scan": ("rpq", {"query": '_*."Bogart"'}, 8),
    "rpq_auto": ("rpq", {"query": "Entry.Movie.Director", "engine": "auto"}, 3),
    "lorel": (
        "lorel",
        {"query": "select m.Title from DB.Entry.Movie m where m.Year < 1925"},
        None,
    ),
    "lorel_auto": (
        "lorel",
        {"query": "select m.Title from DB.Entry.Movie m where m.Year < 1925",
         "engine": "auto"},
        None,
    ),
    "unql": ("unql", {"query": "select \\t where {Entry.Movie.Title: \\t} in db"}, None),
    "find": ("find", {"query": '"Bogart"'}, None),
}

#: read_hot: requests per template and round at scale 1, set so that no op
#: class takes more than ~40 % of the round (unql costs ~30x an rpq)
READ_HOT_MIX = {
    "rpq_chain": 16, "rpq_closure": 16, "rpq_scan": 10, "rpq_auto": 24,
    "lorel": 14, "lorel_auto": 14, "unql": 3, "find": 12,
}

#: mixed_rw: the 9 reads after each synced apply.  Position is the latency
#: key, so each key is unimodal: the first read of a kind after a commit
#: pays freeze / thaw+OEM / SQL image, the later one finds them cached.
#: unql and lorel_auto (0.35-0.65 s each after a commit) are left to
#: read_hot so the time cap still buys several cycles per round.
MIXED_CYCLE = [
    "rpq_chain", "rpq_closure", "lorel", "rpq_auto", "find",
    "lorel", "rpq_scan", "rpq_auto", "rpq_chain",
]
MIXED_CYCLES = 4

#: write_burst at scale 1: groups of 15 unsynced + 1 synced commits, then
#: 7 unsynced commits the kill must be allowed to lose
BURST_GROUPS = 424
BURST_GROUP = 16
BURST_TAIL = 7

FIG1_REQUESTS = 8000


@dataclass
class Request:
    """One wire request with the answer it must get."""

    key: str  # latency key: requests sharing it are one unimodal population
    cls: str  # op class: rpq | lorel | unql | find | apply
    body: dict  # the wire fields (the client adds the id)
    expect: object  # reads: the ``result``; apply: {"version", "acked", "nodes"}


@dataclass
class Plan:
    base: Graph
    warmup: list[Request]
    timed: list[Request]
    post: list[Request] = field(default_factory=list)  # untimed reads after the phase
    final: "Graph | None" = None  # the shadow after every commit (None: read-only)
    acked_version: int = 0  # what the killed store must recover to
    markers: list[str] = field(default_factory=list)  # marker labels acked durable
    probe_after: "int | None" = None  # timed index of the last synced apply

    @property
    def final_edges(self) -> int:
        return (self.final or self.base).num_edges


def _normalise(value: object) -> object:
    """The value as the wire would carry it (tuples -> lists, keys -> str)."""
    return json.loads(json.dumps(value))


def oracle(template: str, graph: Graph) -> object:
    """The expected ``result`` of ``template`` on ``graph``."""
    cls, fields, bound = TEMPLATES[template]
    query = fields["query"]
    if cls == "rpq":
        return sorted(naive_rpq(graph, query, bound))
    if cls == "lorel":
        return _normalise(lorel_rows(lorel(query, graph_to_oem(graph))))
    if cls == "unql":
        return _normalise(to_obj(unql(query, db=graph)))
    return _normalise(where_is(graph, json.loads(query)))


def _read(template: str, expect: object, key: "str | None" = None) -> Request:
    cls, fields, _ = TEMPLATES[template]
    return Request(key or template, cls, {"op": cls, **fields}, expect)


class _Writer:
    """Builds ``apply`` requests and mirrors them on the shadow graph.

    Tracks version, acked horizon and checkpoint folds exactly as the
    store will, so every response field is predictable.
    """

    def __init__(self, shadow: Graph) -> None:
        self.shadow = shadow
        self.version = 0
        self.acked = 0
        self.checkpoint_seq = 0
        self.titles: list[int] = []  # the Title node of every commit so far
        self.labels: list[str] = []  # marker label per commit

    def apply(self, label: str, *, sync: bool) -> Request:
        g = self.shadow
        entry, movie, title, leaf = (g.new_node() for _ in range(4))
        g.add_edge(g.root, "Entry", entry)
        g.add_edge(entry, "Movie", movie)
        g.add_edge(movie, "Title", title)
        g.add_edge(title, string(label), leaf)
        self.titles.append(title)
        self.labels.append(label)
        self.version += 1
        if sync:
            self.acked = self.version
        if self.version - self.checkpoint_seq >= CHECKPOINT_EVERY:
            self.checkpoint_seq = self.acked = self.version  # a fold acks everything
        body = {
            "op": "apply",
            "sync": sync,
            "mutations": [
                {"kind": "node", "name": "e"},
                {"kind": "node", "name": "m"},
                {"kind": "node", "name": "t"},
                {"kind": "node", "name": "v"},
                {"kind": "edge", "src": g.root, "label": "Entry", "dst": "e"},
                {"kind": "edge", "src": "e", "label": "Movie", "dst": "m"},
                {"kind": "edge", "src": "m", "label": "Title", "dst": "t"},
                {"kind": "edge", "src": "t",
                 "label": {"kind": "string", "value": label}, "dst": "v"},
            ],
        }
        expect = {
            "version": self.version,
            "acked": self.acked,
            "nodes": {"e": entry, "m": movie, "t": title, "v": leaf},
        }
        return Request("apply_sync" if sync else "apply_nosync", "apply", body, expect)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def read_hot(seed: int, scale: float, entries: int) -> Plan:
    base = generate_movies(entries, seed)
    answers = {name: oracle(name, base) for name in TEMPLATES}
    # each template's requests are spread evenly over the round, the seed
    # only shifting their phase: a shuffle would now and then put two unql
    # requests (20 MB of garbage each) back to back, and the server's peak
    # rss then moved 9 % from seed to seed
    rng = random.Random(seed)
    slots = []
    for name, count in READ_HOT_MIX.items():
        count, phase = _scaled(count, scale), rng.random()
        slots += [((i + phase) / count, name) for i in range(count)]
    timed = [_read(name, answers[name]) for _, name in sorted(slots)]
    warmup = [_read(name, answers[name]) for name in TEMPLATES]
    return Plan(base, warmup, timed)


def mixed_rw(seed: int, scale: float, entries: int) -> Plan:
    base = generate_movies(entries, seed)
    writer = _Writer(base.copy())
    templates = sorted(set(MIXED_CYCLE))
    answers = {name: oracle(name, base) for name in templates}
    grows = ("rpq_chain", "rpq_closure")  # every commit adds its Title node to these

    def current(name: str) -> object:
        """The answer at the shadow's version: the base's plus the commits' effect."""
        return sorted(answers[name] + writer.titles) if name in grows else answers[name]

    def read(position: int) -> Request:
        name = MIXED_CYCLE[position]
        return _read(name, current(name), key=f"r{position}_{name}")

    warmup = [writer.apply("Warm 1", sync=True)]
    warmup += [_read(name, current(name)) for name in templates]
    timed: list[Request] = []
    for cycle in range(_scaled(MIXED_CYCLES, scale)):
        timed.append(writer.apply(f"New {cycle + 1}", sync=True))
        probe_after = len(timed) - 1
        timed += [read(position) for position in range(len(MIXED_CYCLE))]
    # the increments above must land where a full evaluation of the final
    # shadow lands; the post-phase reads then hold the server to it
    final = {name: oracle(name, writer.shadow) for name in templates}
    for name in templates:
        if current(name) != final[name]:
            raise AssertionError(f"oracle drift on {name}: increment != full evaluation")
    post = [_read(name, final[name]) for name in templates]
    return Plan(
        base, warmup, timed, post, writer.shadow,
        writer.acked, list(writer.labels), probe_after,
    )


def write_burst(seed: int, scale: float, entries: int) -> Plan:
    base = generate_movies(entries, seed)
    writer = _Writer(base.copy())
    chain = oracle("rpq_chain", base)
    warmup = [writer.apply("Warm 1", sync=False), writer.apply("Warm 2", sync=True)]
    groups = _scaled(BURST_GROUPS, scale)
    # the unsynced tail must not ride a fold (a checkpoint would ack it):
    # drop groups until the tail sits strictly between two folds
    while groups > 1 and (
        (len(warmup) + groups * BURST_GROUP) // CHECKPOINT_EVERY
        != (len(warmup) + groups * BURST_GROUP + BURST_TAIL) // CHECKPOINT_EVERY
    ):
        groups -= 1
    timed: list[Request] = []
    k = 0
    for _ in range(groups):
        for slot in range(BURST_GROUP):
            k += 1
            timed.append(writer.apply(f"New {k}", sync=slot == BURST_GROUP - 1))
    probe_after = len(timed) - 1
    acked = writer.acked
    for _ in range(BURST_TAIL):
        k += 1
        timed.append(writer.apply(f"New {k}", sync=False))
    if writer.acked != acked:
        raise AssertionError("the unsynced tail crossed a checkpoint fold")
    final_chain = oracle("rpq_chain", writer.shadow)
    if sorted(chain + writer.titles) != final_chain:
        raise AssertionError("Entry.Movie.Title did not grow by one per commit")
    post = [_read("rpq_chain", final_chain)]
    return Plan(
        base, warmup, timed, post, writer.shadow,
        acked, writer.labels[:acked], probe_after,
    )


# -- fig1_adhoc ---------------------------------------------------------------

_FIG1_BOUND = 10  # figure 1 is 5 edges deep plus one 2-cycle


def _atom(label) -> str:
    """The path-regex atom matching exactly ``label``."""
    if label.is_symbol:
        text = str(label.value)
        return text if text.isalnum() else f"`{text}`"
    if label.is_string:
        return json.dumps(label.value)
    return f"({label.value!r})"  # 3 is the integer, 1200000.0 the real


def pattern_pool(graph: Graph, seed: int, size: int = POOL_SIZE) -> list[tuple[str, str]]:
    """``size`` distinct (shape, pattern) pairs over the graph's own labels.

    Each pattern starts from a real root path of the graph (so most have
    answers) and is then bent into one of three shapes: a chain with
    wildcards, a chain with an alternation, a chain with a closure.
    """
    rng = random.Random(seed)
    vocabulary = sorted({_atom(e.label) for n in graph.reachable() for e in graph.edges_from(n)})
    pool: dict[str, str] = {}
    shapes = ("chain", "alt", "closure")
    attempts = 0
    while len(pool) < size:
        attempts += 1
        if attempts > 200 * size:
            raise AssertionError("pattern space too small for the pool")
        node, atoms = graph.root, []
        for _ in range(rng.randint(2, 5)):
            edges = list(graph.edges_from(node))
            if not edges:
                break
            edge = rng.choice(edges)
            atoms.append(_atom(edge.label))
            node = edge.dst
        shape = shapes[len(pool) % 3]
        spot = rng.randrange(len(atoms))
        if shape == "chain":
            atoms[spot] = rng.choice(["_", rng.choice(vocabulary)])
            if rng.random() < 0.5:
                atoms.append(rng.choice(vocabulary))
        elif shape == "alt":
            others = rng.sample(vocabulary, rng.randint(1, 3))
            atoms[spot] = "(" + "|".join([atoms[spot], *others]) + ")"
        else:
            inner = rng.choice(["_", rng.choice(vocabulary),
                                "|".join(rng.sample(vocabulary, 2))])
            atoms.insert(spot, f"({inner})*")
        pool.setdefault(".".join(atoms), shape)
    return [(shape, pattern) for pattern, shape in pool.items()]


def fig1_adhoc(seed: int, scale: float, entries: int) -> Plan:
    del entries  # the Figure 1 graph has one size
    base = figure1()
    rng = random.Random(seed)
    pool = pattern_pool(base, seed)
    hits = ["Casablanca", "Bogart", "Bacall", "Allen", "Play it again, Sam", 1, 2, 3]
    answers: dict[str, object] = {}

    def rpq(shape: str, pattern: str) -> Request:
        if pattern not in answers:
            answers[pattern] = sorted(naive_rpq(base, pattern, _FIG1_BOUND))
        return Request(f"rpq_{shape}", "rpq", {"op": "rpq", "query": pattern}, answers[pattern])

    def find(hit: bool) -> Request:
        value = rng.choice(hits) if hit else f"Nobody {rng.randrange(10**6)}"
        query = json.dumps(value)
        if query not in answers:
            answers[query] = _normalise(where_is(base, value))
        return Request(
            "find_hit" if hit else "find_miss", "find",
            {"op": "find", "query": query}, answers[query],
        )

    timed: list[Request] = []
    for i in range(_scaled(FIG1_REQUESTS, scale)):
        if i % 5 == 4:  # 20 % browse, alternating hits and misses
            timed.append(find(hit=i % 10 == 4))
        else:
            timed.append(rpq(*rng.choice(pool)))
    warmup = [rpq(*pool[i]) for i in range(3)] + [find(True), find(False)]
    return Plan(base, warmup, timed)


BUILDERS = {
    "read_hot": read_hot,
    "fig1_adhoc": fig1_adhoc,
    "mixed_rw": mixed_rw,
    "write_burst": write_burst,
}

#: generate_movies entries: the full size and the self-test's
ENTRIES = 2000
SMOKE_ENTRIES = 120


def build(workload: str, seed: int, scale: float = 1.0, *, smoke: bool = False) -> Plan:
    """The plan of ``workload``; the same arguments give the same plan."""
    return BUILDERS[workload](seed, scale, SMOKE_ENTRIES if smoke else ENTRIES)
