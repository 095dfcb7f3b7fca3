"""Strong DataGuides: concise structural summaries (section 5, [22]).

Goldman & Widom's DataGuide is a *deterministic* summary of a database:
every label path from the root appears exactly once, and each DataGuide
node remembers the set of database nodes (the *target set*) that its path
reaches.  The paper contrasts this automata-equivalence-based notion with
the weaker simulation-based schemas: the DataGuide is obtained by the
classical NFA->DFA subset construction applied to the data graph itself,
treating database nodes as NFA states.

Uses: "schemas are useful for browsing and for providing partial answers to
queries" -- the DataGuide answers *path existence* and *path counting*
without touching the database, and its target sets seed path-query
evaluation (experiment E7).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..core.graph import Graph
from ..core.labels import Label

__all__ = [
    "DataGuide",
    "paths_equivalent",
    "rpq_via_dataguide",
]


class DataGuide:
    """The strong DataGuide of a rooted edge-labeled graph."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._states: list[frozenset[int]] = []
        self._state_ids: dict[frozenset[int], int] = {}
        self._transitions: list[dict[Label, int]] = []
        start = frozenset({graph.root})
        self._intern(start)
        queue = deque([start])
        while queue:
            subset = queue.popleft()
            sid = self._state_ids[subset]
            moves: dict[Label, set[int]] = {}
            for node in subset:
                for edge in graph.edges_from(node):
                    moves.setdefault(edge.label, set()).add(edge.dst)
            for label in sorted(moves, key=Label.sort_key):
                target = frozenset(moves[label])
                if target not in self._state_ids:
                    self._intern(target)
                    queue.append(target)
                self._transitions[sid][label] = self._state_ids[target]

    def _intern(self, subset: frozenset[int]) -> int:
        sid = len(self._states)
        self._state_ids[subset] = sid
        self._states.append(subset)
        self._transitions.append({})
        return sid

    # -- incremental maintenance -------------------------------------------------

    def refresh(self, new_edges) -> "DataGuide":
        """Fold newly visible edges in without a full subset construction.

        A new edge ``src --l--> dst`` only changes the rows of states
        whose subset contains ``src`` (their ``l``-move gains ``dst``);
        those rows are recomputed from the live graph, interning any
        subsets that did not exist before.  Freshly interned states get
        their rows computed the same way, cascading until closed --
        every *other* state's subset is unchanged, so its row is still
        correct.  Unreferenced old states are then garbage-collected so
        ``num_states``/``all_paths`` match a cold rebuild exactly
        (property-tested in the MVCC suite).

        Cost is proportional to the affected region, not the database;
        the E18 bench measures the win over rebuild-on-stale.
        """
        new_edges = list(new_edges)
        if not new_edges:
            return self
        graph = self._graph
        srcs = {edge.src for edge in new_edges}
        queue = deque(
            sid for sid, subset in enumerate(self._states) if subset & srcs
        )
        scheduled = set(queue)
        while queue:
            sid = queue.popleft()
            moves: dict[Label, set[int]] = {}
            for node in self._states[sid]:
                for edge in graph.edges_from(node):
                    moves.setdefault(edge.label, set()).add(edge.dst)
            row: dict[Label, int] = {}
            for label in sorted(moves, key=Label.sort_key):
                target = frozenset(moves[label])
                tid = self._state_ids.get(target)
                if tid is None:
                    tid = self._intern(target)
                    scheduled.add(tid)
                    queue.append(tid)
                row[label] = tid
            self._transitions[sid] = row
        self._compact()
        return self

    def _compact(self) -> None:
        """Drop states unreachable from the start state and renumber."""
        order: list[int] = [0]
        remap = {0: 0}
        for sid in order:
            for tid in self._transitions[sid].values():
                if tid not in remap:
                    remap[tid] = len(order)
                    order.append(tid)
        if len(order) == len(self._states):
            return
        self._states = [self._states[sid] for sid in order]
        self._transitions = [
            {label: remap[tid] for label, tid in self._transitions[sid].items()}
            for sid in order
        ]
        self._state_ids = {subset: i for i, subset in enumerate(self._states)}

    def equivalent_to(self, other: "DataGuide") -> bool:
        """Same path language *and* same target sets: a synchronized walk.

        This is the refresh-vs-cold-rebuild checker: two strong
        DataGuides of the same database must agree on every path's
        existence and extent, whatever their internal state numbering.
        """
        seen = {(0, 0)}
        queue = deque([(0, 0)])
        while queue:
            s1, s2 = queue.popleft()
            if self._states[s1] != other._states[s2]:
                return False
            t1, t2 = self._transitions[s1], other._transitions[s2]
            if set(t1) != set(t2):
                return False
            for label, n1 in t1.items():
                pair = (n1, t2[label])
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        return True

    # -- queries ---------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._states)

    def target_set(self, path: tuple[Label, ...]) -> frozenset[int]:
        """Database nodes reached by ``path`` (empty when path absent).

        Cost: one dict lookup per step, independent of database size --
        the whole point of the structure.
        """
        state = 0
        for label in path:
            nxt = self._transitions[state].get(label)
            if nxt is None:
                return frozenset()
            state = nxt
        return self._states[state]

    def path_exists(self, path: tuple[Label, ...]) -> bool:
        state = 0
        for label in path:
            nxt = self._transitions[state].get(label)
            if nxt is None:
                return False
            state = nxt
        return True

    def labels_after(self, path: tuple[Label, ...]) -> list[Label]:
        """The labels that can extend ``path`` -- the browsing aid the
        DataGuide paper motivates (query formulation without a schema)."""
        state = 0
        for label in path:
            nxt = self._transitions[state].get(label)
            if nxt is None:
                return []
            state = nxt
        return sorted(self._transitions[state], key=Label.sort_key)

    def all_paths(self, max_length: int) -> Iterator[tuple[Label, ...]]:
        """Every distinct label path up to ``max_length`` (each once)."""
        queue: deque[tuple[tuple[Label, ...], int]] = deque([((), 0)])
        while queue:
            path, state = queue.popleft()
            yield path
            if len(path) >= max_length:
                continue
            for label in sorted(self._transitions[state], key=Label.sort_key):
                queue.append((path + (label,), self._transitions[state][label]))

    def transitions_of(self, state: int) -> dict[Label, int]:
        return dict(self._transitions[state])

    def extent(self, state: int) -> frozenset[int]:
        """The target set of a guide state: the database nodes its path reaches."""
        return self._states[state]

    def as_graph(self) -> Graph:
        """The DataGuide itself as an edge-labeled graph (it is one)."""
        g = Graph()
        nodes = [g.new_node() for _ in self._states]
        g.set_root(nodes[0])
        for sid, moves in enumerate(self._transitions):
            for label in sorted(moves, key=Label.sort_key):
                g.add_edge(nodes[sid], label, nodes[moves[label]])
        return g


def paths_equivalent(g1: Graph, g2: Graph) -> bool:
    """Automata equivalence: do two graphs have the same label paths?

    This is the *stronger* relationship section 5 attributes to [31, 22]
    (DataGuides / representative objects) in contrast to simulation: the
    two databases are equivalent as automata over label paths.  Decided by
    a synchronized walk over the two strong DataGuides -- both
    deterministic, so language equality is a product reachability check.

    Bisimilar graphs are always path-equivalent; the converse fails
    (path equivalence forgets branching structure), and experiment E10
    measures both directions.
    """
    d1, d2 = DataGuide(g1), DataGuide(g2)
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        s1, s2 = queue.popleft()
        t1 = d1.transitions_of(s1)
        t2 = d2.transitions_of(s2)
        if set(t1) != set(t2):
            return False
        for label, n1 in t1.items():
            pair = (n1, t2[label])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def rpq_via_dataguide(guide: DataGuide, pattern) -> frozenset[int]:
    """Answer a regular path query from the DataGuide alone.

    Correctness: the strong DataGuide is deterministic and complete for
    the database's label paths, and each guide state remembers exactly the
    database nodes its path reaches.  A node answers the RPQ iff some
    matching path reaches it iff it lies in the target set of some guide
    state reachable under the query automaton -- so running the product
    against the (small) guide instead of the (large) database is *exact*,
    not approximate.  This is the query-optimization use of DataGuides the
    paper points at via [22], and experiment E7 measures the win.

    ``pattern`` may be a string, a parsed regex, or a precompiled
    :class:`~repro.automata.dfa.LazyDfa` (a cached plan, shared with
    any other traversal of the same pattern).
    """
    from ..automata.product import compile_rpq

    dfa = compile_rpq(pattern)
    # the guide x DFA product, depth first; its explored (guide state, dfa
    # state) pairs stop it on a cyclic guide and stay tiny next to the
    # data-graph product it replaces
    answers: set[int] = set()
    start = (0, dfa.start)
    seen = {start}
    stack = [start]
    if dfa.is_accepting(dfa.start):
        answers.update(guide._states[0])
    while stack:
        state, q = stack.pop()
        for label, nxt in guide._transitions[state].items():
            q2 = dfa.step(q, label)
            if dfa.is_dead(q2):
                continue
            config = (nxt, q2)
            if config in seen:
                continue
            seen.add(config)
            if dfa.is_accepting(q2):
                answers.update(guide._states[nxt])
            stack.append(config)
    return frozenset(answers)
