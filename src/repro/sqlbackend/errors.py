"""The typed compilation failure of the SQL backend.

The backend's safety contract is *refuse, never approximate*: any
pattern or query it cannot lower into SQL with exactly the native
engine's semantics raises :class:`NotCompilable` at compile time, and
the caller that asked for SQL gets the refusal (UnQL's per-member
rewrite leaves that member native).  The fuzz suite in
``tests/sqlbackend`` generates adversarial patterns and asserts exactly
this dichotomy -- either both engines agree, or the SQL engine raised
:class:`NotCompilable` before producing a single row.
"""

from __future__ import annotations

__all__ = ["NotCompilable"]


class NotCompilable(ValueError):
    """A query outside the SQL-compilable fragment.

    ``reason`` is a stable, machine-checkable slug (``vocabulary``,
    ``dfa-too-large``, ``base``, ``compare``...); the message carries
    the human detail.  Raised during compilation only: once a
    :class:`~repro.sqlbackend.compiler.CompiledQuery` exists, execution
    cannot fail for expressiveness reasons.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)
