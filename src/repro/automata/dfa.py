"""Lazy determinization of predicate-guarded NFAs.

Classical subset construction assumes a finite alphabet; path regexes over
semistructured data do not have one (any int, string or symbol can label an
edge).  The trick: two labels that agree on every transition predicate of
the NFA are indistinguishable, so the *predicate truth vector* of a label
is its effective letter.  :class:`LazyDfa` builds DFA states on demand,
memoized per (subset-state, truth-vector); the result is a deterministic
runner with amortized O(1) predicate work per (state, vector) pair, which
is what makes repeated RPQ evaluation over large graphs cheap.
"""

from __future__ import annotations

from ..core.labels import Label
from .nfa import Nfa
from .regex import LabelPredicate

__all__ = ["LazyDfa"]

#: Sentinel distinguishing "not computed yet" from a computed ``None``.
_UNCOMPUTED = object()


class LazyDfa:
    """A DFA materialized lazily from an NFA.

    DFA states are interned frozensets of NFA states.  The transition
    table is keyed by ``(dfa_state, truth_vector)`` where the truth vector
    evaluates every NFA predicate against the incoming label once.
    """

    def __init__(self, nfa: Nfa) -> None:
        self._nfa = nfa
        self._predicates: list[LabelPredicate] = nfa.predicates()
        self._pred_index = {p: i for i, p in enumerate(self._predicates)}
        self._state_ids: dict[frozenset[int], int] = {}
        self._subsets: list[frozenset[int]] = []
        self._accepting: list[bool] = []
        self._table: dict[tuple[int, tuple[bool, ...]], int] = {}
        self._vector_cache: dict[Label, tuple[bool, ...]] = {}
        self._live_labels: dict[int, "frozenset[Label] | None"] = {}
        self._final: "frozenset[Label] | None | object" = _UNCOMPUTED
        self._repeats: "bool | None" = None
        self.start = self._intern(nfa.initial())

    # -- state management -------------------------------------------------------

    def _intern(self, subset: frozenset[int]) -> int:
        if subset not in self._state_ids:
            self._state_ids[subset] = len(self._subsets)
            self._subsets.append(subset)
            self._accepting.append(self._nfa.is_accepting(subset))
        return self._state_ids[subset]

    def _truth_vector(self, label: Label) -> tuple[bool, ...]:
        cached = self._vector_cache.get(label)
        if cached is None:
            cached = tuple(p.matches(label) for p in self._predicates)
            self._vector_cache[label] = cached
        return cached

    # -- execution ----------------------------------------------------------------

    def step(self, state: int, label: Label) -> int:
        """The deterministic transition on ``label`` (building it if new)."""
        vector = self._truth_vector(label)
        key = (state, vector)
        nxt = self._table.get(key)
        if nxt is None:
            subset = self._subsets[state]
            targets: set[int] = set()
            for s in subset:
                for predicate, t in self._nfa.transitions[s]:
                    if vector[self._pred_index[predicate]]:
                        targets.add(t)
            nxt = self._intern(self._nfa.eps_closure(targets))
            self._table[key] = nxt
        return nxt

    def is_accepting(self, state: int) -> bool:
        return self._accepting[state]

    def live_exact_labels(self, state: int) -> "frozenset[Label] | None":
        """The labels that can move ``state`` forward, when that set is exact.

        Returns the union of the *exact* transition guards leaving the
        state's NFA subset, or ``None`` as soon as any guard is
        non-exact (wildcard, glob, type test, negation) -- then no
        finite label set captures the live alphabet and callers must
        fall back to a full edge scan.  Any label outside a non-``None``
        result necessarily steps to the dead state, which is what lets
        the product kernel skip those edges without changing results.
        Memoized per state (the subset never changes).
        """
        cached = self._live_labels.get(state, _UNCOMPUTED)
        if cached is not _UNCOMPUTED:
            return cached
        labels: set[Label] = set()
        live: "frozenset[Label] | None" = None
        for s in self._subsets[state]:
            for predicate, _target in self._nfa.transitions[s]:
                if not predicate.is_exact:
                    break
                labels.add(predicate.exact_label)
            else:
                continue
            break
        else:
            live = frozenset(labels)
        self._live_labels[state] = live
        return live

    def final_labels(self) -> "frozenset[Label] | None":
        """The labels on the NFA transitions into an accepting closure --
        what the last edge of every accepted non-empty path carries -- or
        ``None`` if one of those guards is not exact.  Memoized."""
        if self._final is _UNCOMPUTED:
            nfa, labels = self._nfa, set()
            for moves in nfa.transitions:
                for predicate, target in moves:
                    if nfa.is_accepting(nfa.eps_closure([target])):
                        if not predicate.is_exact:
                            self._final = None
                            return None
                        labels.add(predicate.exact_label)
            self._final = frozenset(labels)
        return self._final  # type: ignore[return-value]

    @property
    def wildcard_repeats(self) -> bool:
        """Whether a non-exact guard loops back to itself by epsilon moves
        (``_*``, ``#``, ``(!a)*``): a walk that scans every edge below it,
        level by level.  Memoized; an exact-only plan is decided from its
        guards alone."""
        if self._repeats is None:
            nfa = self._nfa
            self._repeats = not all(p.kind == "exact" for p in self._predicates) and any(
                not predicate.is_exact and src in nfa.eps_closure([target])
                for src, moves in enumerate(nfa.transitions)
                for predicate, target in moves
            )
        return self._repeats

    def ensure_dead_state(self) -> int:
        """Intern (and return) the dead state explicitly.

        The pruned product kernel calls this when it skips edges whose
        label cannot advance the automaton: a full scan would have
        stepped those edges and thereby materialized the dead state, so
        interning it here keeps ``num_materialized_states`` -- a pinned
        golden-profile observable -- identical between the pruned and
        unpruned traversals.
        """
        return self._intern(frozenset())

    @property
    def has_dead_state(self) -> bool:
        return frozenset() in self._state_ids

    def is_dead(self, state: int) -> bool:
        """True iff the state is the empty subset: no continuation can match."""
        return not self._subsets[state]

    def matches(self, labels) -> bool:
        state = self.start
        for label in labels:
            state = self.step(state, label)
            if self.is_dead(state):
                return False
        return self.is_accepting(state)

    @property
    def num_materialized_states(self) -> int:
        return len(self._subsets)
