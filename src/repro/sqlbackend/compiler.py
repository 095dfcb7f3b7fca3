"""Lowering root-origin path-regex queries to SQL (the paper's option 1).

Three compilation shapes, tried in order of decreasing structure:

* **wide** -- the query's fixed path ends inside a record region, so the
  answer is a scan of the DataGuide-derived wide tables (structured
  speed for the structured part of the data);
* **chain** -- the regex is a concatenation of single-label steps, which
  becomes an N-way self-join of ``edge`` in a greedy cost-based order
  (:mod:`~repro.sqlbackend.joins`), joined with ``CROSS JOIN`` so the
  textual order *is* the physical plan;
* **automaton** -- anything with closure operators materializes its
  :class:`~repro.automata.dfa.LazyDfa` over the snapshot's finite label
  vocabulary into a ``dfa(s, lid, t)`` values table and runs a
  ``WITH RECURSIVE`` fixpoint (``UNION``, not ``UNION ALL``: the
  set-semantics dedup is what terminates on cyclic data).

Every label predicate is resolved *in Python* against the interned
vocabulary into literal ``lid`` sets -- sqlite never evaluates a glob or
a type test, so the two engines cannot disagree on predicate semantics.
Queries outside the fragment (oversized IN-lists, DFA blow-ups, huge
extents) raise :class:`~repro.sqlbackend.errors.NotCompilable` and the
caller falls back to the native kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..automata.nfa import build_nfa
from ..automata.dfa import LazyDfa
from ..automata.regex import (
    AltRE,
    AtomRE,
    ConcatRE,
    EpsilonRE,
    LabelPredicate,
    PathRegex,
)
from ..relational.encode import _atom_kind
from ..unql.optimizer import fixed_path_of
from .errors import NotCompilable
from .joins import JoinGraph, greedy_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.frozen import FrozenGraph
    from ..planner.stats import GraphStatistics
    from ..schema.dataguide import DataGuide
    from .encode import WideCatalog

__all__ = [
    "CompiledQuery",
    "MAX_IN_LIST",
    "MAX_DFA_STATES",
    "MAX_DFA_TRANSITIONS",
    "MAX_WIDE_EXTENT",
    "chain_steps",
    "resolve_step",
    "compile_chain",
    "compile_automaton",
    "compile_wide",
    "compile_rpq",
]

#: Largest literal ``IN (...)`` list the compiler will emit.
MAX_IN_LIST = 512
#: Materialized-DFA caps: states and (state, lid, state) transitions.
MAX_DFA_STATES = 64
MAX_DFA_TRANSITIONS = 4096
#: Largest DataGuide extent inlined into a wide-table scan.
MAX_WIDE_EXTENT = 256


@dataclass
class CompiledQuery:
    """An executable SQL plan: text, parameters, and provenance.

    ``kind`` is ``"wide"``, ``"chain"`` or ``"automaton"``; ``info``
    carries compile-time facts (join order, DFA size, extent size) that
    the ``.sql`` goldens surface.
    """

    sql: str
    params: tuple = ()
    kind: str = "chain"
    info: dict = field(default_factory=dict)


_EMPTY_SQL = "SELECT 0 AS node WHERE 0"


def _empty(kind: str, why: str) -> CompiledQuery:
    return CompiledQuery(_EMPTY_SQL, (), kind, {"empty": why})


def _in_clause(expr: str, values: "list[int]") -> str:
    if len(values) == 1:
        return f"{expr} = {values[0]}"
    return f"{expr} IN ({', '.join(str(v) for v in sorted(values))})"


# ---------------------------------------------------------------------------
# Step normalization: is the regex a plain concatenation of single steps?


def _single_step(regex: PathRegex) -> "list[LabelPredicate] | None":
    """The predicate union a one-label regex matches, else ``None``."""
    if isinstance(regex, AtomRE):
        return [regex.predicate]
    if isinstance(regex, AltRE):
        left = _single_step(regex.left)
        right = _single_step(regex.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def chain_steps(regex: PathRegex) -> "list[list[LabelPredicate]] | None":
    """Flatten a concat-of-atoms regex into per-step predicate lists.

    ``None`` when the regex needs an automaton (closure operators,
    alternation across multi-step branches, optional parts).
    """
    steps: list[list[LabelPredicate]] = []
    stack = [regex]
    while stack:
        node = stack.pop()
        if isinstance(node, ConcatRE):
            stack.append(node.left)  # popped after right: reverse order
            stack.append(node.right)
            continue
        if isinstance(node, EpsilonRE):
            continue
        preds = _single_step(node)
        if preds is None:
            return None
        steps.append(preds)
    steps.reverse()
    return steps


def resolve_step(
    preds: "list[LabelPredicate]", fg: "FrozenGraph"
) -> "list[int] | None":
    """The lids a step's predicates match in ``fg``'s vocabulary, ascending.

    An exact predicate is one ``label_index`` lookup; only wildcard, glob
    and type predicates scan the labels, so a chain of exact steps
    compiles in time independent of the vocabulary.  ``None`` means
    unconstrained (every label matches -- no SQL filter needed); an
    oversized constrained set raises :class:`NotCompilable`.
    """
    labels_seq = fg.labels_seq
    scanned = [p for p in preds if not p.is_exact]
    found = {fg.label_index.get(p.exact_label) for p in preds if p.is_exact}
    found.discard(None)
    if scanned:
        found.update(
            lid for lid, label in enumerate(labels_seq) if any(p.matches(label) for p in scanned)
        )
    matched = sorted(found)
    if len(matched) == len(labels_seq) and matched:
        return None
    if len(matched) > MAX_IN_LIST:
        raise NotCompilable(
            "vocabulary",
            f"step matches {len(matched)} labels (cap {MAX_IN_LIST})",
        )
    return matched


# ---------------------------------------------------------------------------
# Chain compilation.


def compile_chain(
    lid_steps: "list[list[int] | None]",
    root: int,
    stats: "GraphStatistics",
    labels_seq,
) -> CompiledQuery:
    """An N-way self-join of ``edge``, ordered by the greedy heuristic."""
    if not lid_steps:
        # The regex matches only the empty path: the answer is the root.
        return CompiledQuery(
            f"SELECT {root} AS node", (), "chain", {"steps": 0}
        )
    for i, lids in enumerate(lid_steps):
        if lids is not None and not lids:
            return _empty("chain", f"step {i} matches no label")

    graph = JoinGraph()
    for i, lids in enumerate(lid_steps):
        if lids is None:
            cost = float(stats.num_edges)
        else:
            cost = float(sum(stats.count(labels_seq[lid]) for lid in lids))
        if i == 0:
            # Seeded by the root constant: selectivity 1/num_nodes.
            cost = max(1.0, cost) / max(1, stats.num_nodes)
        graph.add_node(f"e{i}", cost)
        if i:
            graph.connect(f"e{i - 1}", f"e{i}")
    order = greedy_order(graph)

    conds = [f"e0.src = {root}"]
    for i, lids in enumerate(lid_steps):
        if lids is not None:
            conds.append(_in_clause(f"e{i}.lid", lids))
        if i:
            conds.append(f"e{i}.src = e{i - 1}.dst")
    from_sql = "\nCROSS JOIN ".join(f"edge AS {name}" for name in order)
    last = len(lid_steps) - 1
    sql = (
        f"SELECT DISTINCT e{last}.dst AS node\n"
        f"FROM {from_sql}\n"
        f"WHERE {chr(10).join(f'  AND {c}' for c in conds)[6:]}\n"
        f"ORDER BY node"
    )
    return CompiledQuery(
        sql, (), "chain", {"steps": len(lid_steps), "join_order": order}
    )


# ---------------------------------------------------------------------------
# Automaton compilation.


def _materialize_dfa(regex: PathRegex, labels_seq):
    """BFS the lazy DFA over the finite vocabulary; caps enforced."""
    dfa = LazyDfa(build_nfa(regex))
    transitions: list[tuple[int, int, int]] = []
    seen = {dfa.start}
    queue = [dfa.start]
    while queue:
        state = queue.pop(0)
        for lid, label in enumerate(labels_seq):
            nxt = dfa.step(state, label)
            if dfa.is_dead(nxt):
                continue
            transitions.append((state, lid, nxt))
            if len(transitions) > MAX_DFA_TRANSITIONS:
                raise NotCompilable(
                    "dfa-too-large",
                    f"more than {MAX_DFA_TRANSITIONS} transitions",
                )
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > MAX_DFA_STATES:
                    raise NotCompilable(
                        "dfa-too-large",
                        f"more than {MAX_DFA_STATES} states",
                    )
                queue.append(nxt)
    accepting = sorted(s for s in seen if dfa.is_accepting(s))
    return dfa.start, transitions, accepting, len(seen)


def compile_automaton(
    regex: PathRegex, root: int, labels_seq
) -> CompiledQuery:
    """A recursive-CTE fixpoint over the materialized product automaton."""
    start, transitions, accepting, num_states = _materialize_dfa(
        regex, labels_seq
    )
    if not accepting:
        return _empty("automaton", "no reachable accepting state")
    if transitions:
        values = ",\n    ".join(
            f"({s}, {lid}, {t})" for s, lid, t in transitions
        )
        dfa_sql = f"VALUES\n    {values}"
    else:
        dfa_sql = "SELECT 0, 0, 0 WHERE 0"
    sql = (
        "WITH RECURSIVE\n"
        f"dfa(s, lid, t) AS (\n  {dfa_sql}\n),\n"
        "reach(node, state) AS (\n"
        f"  SELECT {root}, {start}\n"
        "  UNION\n"
        "  SELECT e.dst, d.t\n"
        "  FROM reach AS r\n"
        "  JOIN dfa AS d ON d.s = r.state\n"
        "  JOIN edge AS e ON e.src = r.node AND e.lid = d.lid\n"
        ")\n"
        "SELECT DISTINCT node FROM reach\n"
        f"WHERE {_in_clause('state', accepting)}\n"
        "ORDER BY node"
    )
    return CompiledQuery(
        sql,
        (),
        "automaton",
        {"dfa_states": num_states, "dfa_transitions": len(transitions)},
    )


# ---------------------------------------------------------------------------
# Wide-table compilation.


def compile_wide(
    regex: PathRegex,
    guide: "DataGuide | None",
    catalog: "WideCatalog | None",
) -> "CompiledQuery | None":
    """Answer a fixed-path query from the wide tables, when sound.

    The fixed path splits as ``prefix . member [. attr [. value]]``; the
    prefix resolves through the DataGuide to a collection extent, and
    the split is usable only when every extent node's *member* region is
    record-shaped (:meth:`WideCatalog.covers`).  Returns ``None`` when
    no split applies -- the caller falls through to chain/automaton
    compilation, never to a wrong answer.
    """
    if guide is None or catalog is None:
        return None
    fixed = fixed_path_of(regex)
    if not fixed:
        return None
    for tail_len in (1, 2, 3):
        if len(fixed) < tail_len:
            break
        split = len(fixed) - tail_len
        member = fixed[split]
        if not member.is_symbol:
            continue
        if tail_len >= 2 and not fixed[split + 1].is_symbol:
            continue
        if tail_len == 3 and not fixed[split + 2].is_base:
            continue
        extent = guide.target_set(fixed[:split])
        if not extent:
            return _empty("wide", "prefix unreachable")
        if len(extent) > MAX_WIDE_EXTENT:
            continue
        member_name = str(member.value)
        if not catalog.covers(extent, member_name):
            continue
        colls = _in_clause("m.coll", sorted(extent))
        info = {"tail": tail_len, "extent": len(extent)}
        if tail_len == 1:
            sql = (
                "SELECT DISTINCT m.rec AS node\n"
                "FROM wide_member AS m\n"
                f"WHERE m.member = ? AND {colls}\n"
                "ORDER BY node"
            )
            return CompiledQuery(sql, (member_name,), "wide", info)
        attr_name = str(fixed[split + 1].value)
        if tail_len == 2:
            sql = (
                "SELECT DISTINCT w.vnode AS node\n"
                "FROM wide_member AS m\n"
                "JOIN wide_attr AS w ON w.rec = m.rec AND w.attr = ?\n"
                f"WHERE m.member = ? AND {colls}\n"
                "ORDER BY node"
            )
            return CompiledQuery(sql, (attr_name, member_name), "wide", info)
        value = fixed[split + 2].value
        kind = _atom_kind(value)
        stored = int(value) if isinstance(value, bool) else value
        sql = (
            "SELECT DISTINCT w.leaf AS node\n"
            "FROM wide_member AS m\n"
            "JOIN wide_attr AS w ON w.rec = m.rec AND w.attr = ?\n"
            "  AND w.kind = ? AND w.value = ?\n"
            f"WHERE m.member = ? AND {colls}\n"
            "ORDER BY node"
        )
        return CompiledQuery(
            sql, (attr_name, kind, stored, member_name), "wide", info
        )
    return None


# ---------------------------------------------------------------------------
# Top-level entry.


def compile_rpq(
    fg: "FrozenGraph",
    regex: PathRegex,
    stats: "GraphStatistics",
    *,
    guide: "DataGuide | None" = None,
    catalog: "WideCatalog | None" = None,
) -> CompiledQuery:
    """Compile a root-origin path-regex query against a snapshot.

    Tries wide, then chain, then automaton; raises
    :class:`NotCompilable` when the query is outside the SQL fragment.
    """
    compiled = compile_wide(regex, guide, catalog)
    if compiled is not None:
        return compiled
    steps = chain_steps(regex)
    if steps is not None:
        lid_steps = [resolve_step(preds, fg) for preds in steps]
        return compile_chain(lid_steps, fg.root, stats, fg.labels_seq)
    return compile_automaton(regex, fg.root, fg.labels_seq)
