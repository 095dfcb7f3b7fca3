"""Partial-result semantics: degrade gracefully, and say so.

When an external fetch or a site sub-query ultimately fails, production
queries should not crash -- they should answer from the reachable portion
of the data and *report* what is missing.  The contract here is:

* an engine in partial mode never raises for a dependency failure; it
  returns the answer computed from everything that did arrive;
* alongside the answer it produces a :class:`Completeness` report saying
  whether the answer is **exact** (every needed fetch/site succeeded,
  possibly after retries) or a **lower bound** (some portion was lost),
  which dependencies failed and after how many attempts, and how much
  work was dropped on the floor;
* monotone queries only (everything in this repository's query
  inventory): an answer over a subgraph is a sound lower bound, never
  wrong tuples.  Lost data can only *hide* results, not invent them.

Anything that traverses lazily (:class:`~repro.storage.external.
ExternalGraph`) or remotely (:class:`~repro.distributed.decompose.
SiteRuntime`) exposes a ``completeness()`` method;
:func:`completeness_of` reads it off any graph-like object, defaulting to
"exact" for plain in-memory graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

__all__ = ["FailureRecord", "Completeness", "PartialResult", "completeness_of"]

T = TypeVar("T")


@dataclass(frozen=True)
class FailureRecord:
    """One dependency that ultimately failed.

    ``kind`` is ``"fetch"`` (an external stub) or ``"site"`` (a
    distributed sub-query); ``key`` names the dependency; ``attempts`` is
    how many times it was actually contacted; ``lost`` counts the work
    units dropped because of it (queued configurations, local edges, or 1
    for a stub subtree); ``error`` is the last error's rendering.
    """

    kind: str
    key: str
    attempts: int
    error: str
    lost: int = 1


@dataclass(frozen=True)
class Completeness:
    """Whether (and how) an answer covers all the data it should have.

    ``complete=True`` means the answer is exact: every dependency the
    evaluation needed was reached, if necessary after retries (counted in
    ``retries``).  ``complete=False`` means the answer is a lower bound;
    ``failures`` names exactly what was lost.  Regions that exist but
    were never *needed* (lazy stubs no traversal entered) do not affect
    completeness -- laziness is not loss.
    """

    complete: bool = True
    failures: tuple[FailureRecord, ...] = ()
    retries: int = 0
    succeeded: int = 0

    @property
    def is_lower_bound(self) -> bool:
        return not self.complete

    def failed_keys(self) -> set[str]:
        return {f.key for f in self.failures}

    @property
    def lost(self) -> int:
        """Total work units dropped across all failures."""
        return sum(f.lost for f in self.failures)

    def describe(self) -> str:
        """A one-paragraph human rendering (the CLI prints this)."""
        if self.complete:
            note = f" after {self.retries} retr{'y' if self.retries == 1 else 'ies'}" \
                if self.retries else ""
            return f"exact answer: all {self.succeeded} dependency call(s) succeeded{note}"
        lines = [
            f"PARTIAL answer (lower bound): {len(self.failures)} dependency "
            f"failure(s), {self.lost} work unit(s) lost, {self.retries} retr"
            f"{'y' if self.retries == 1 else 'ies'} spent"
        ]
        for f in self.failures:
            lines.append(
                f"  - {f.kind} {f.key!r}: {f.attempts} attempt(s), "
                f"lost {f.lost}: {f.error}"
            )
        return "\n".join(lines)

    @staticmethod
    def merge(*reports: "Completeness") -> "Completeness":
        """Combine reports from several layers of one evaluation."""
        return Completeness(
            complete=all(r.complete for r in reports),
            failures=tuple(f for r in reports for f in r.failures),
            retries=sum(r.retries for r in reports),
            succeeded=sum(r.succeeded for r in reports),
        )


@dataclass(frozen=True)
class PartialResult(Generic[T]):
    """An answer bundled with its completeness report.

    Iterating / truthiness delegate to the value so existing call sites
    can adopt the partial API with minimal churn.
    """

    value: T
    completeness: Completeness = field(default_factory=Completeness)

    @property
    def exact(self) -> bool:
        return self.completeness.complete

    def __iter__(self) -> Any:
        return iter(self.value)  # type: ignore[call-overload]

    def __len__(self) -> int:
        return len(self.value)  # type: ignore[arg-type]

    def __contains__(self, item: object) -> bool:
        return item in self.value  # type: ignore[operator]


def completeness_of(graph: Any) -> Completeness:
    """The completeness report of a graph-like object.

    Graphs that can lose data (external wrappers, resilient views) expose
    ``completeness()``; anything else is in-memory and therefore exact.
    """
    probe = getattr(graph, "completeness", None)
    if callable(probe):
        report = probe()
        if isinstance(report, Completeness):
            return report
    return Completeness()
