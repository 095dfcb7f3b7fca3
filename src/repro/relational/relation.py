"""Named-attribute relations: the substrate of section 3's first strategy.

"The first [strategy] is to model the graph as a relational database and
then exploit a relational query language."  This module provides the
relations themselves; :mod:`repro.relational.algebra` provides the
operators, and :mod:`repro.relational.encode` the graph encodings.

A :class:`Relation` is a *set* of tuples over a named schema -- set
semantics, as in the relational algebra the paper compares UnQL against
(duplicates are eliminated on construction).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

__all__ = ["Relation", "RelationError"]


class RelationError(ValueError):
    """Raised on schema violations (arity/name mismatches...)."""


class Relation:
    """An immutable set of tuples over a named attribute schema."""

    __slots__ = ("_schema", "_rows", "_index_cache")

    def __init__(self, schema: Iterable[str], rows: Iterable[tuple] = ()) -> None:
        self._schema: tuple[str, ...] = tuple(schema)
        if len(set(self._schema)) != len(self._schema):
            raise RelationError(f"duplicate attribute names in {self._schema}")
        frozen: set[tuple] = set()
        width = len(self._schema)
        for row in rows:
            t = tuple(row)
            if len(t) != width:
                raise RelationError(
                    f"row {t!r} has arity {len(t)}, schema {self._schema} wants {width}"
                )
            frozen.add(t)
        self._rows: frozenset[tuple] = frozenset(frozen)
        self._index_cache: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}

    # -- basics -----------------------------------------------------------------

    @property
    def schema(self) -> tuple[str, ...]:
        return self._schema

    @property
    def rows(self) -> frozenset[tuple]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def attr_pos(self, name: str) -> int:
        try:
            return self._schema.index(name)
        except ValueError:
            raise RelationError(
                f"no attribute {name!r} in schema {self._schema}"
            ) from None

    def column(self, name: str) -> list[Any]:
        """All values of one attribute (with duplicates, unordered)."""
        pos = self.attr_pos(name)
        return [row[pos] for row in self._rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as attribute->value dicts, sorted for stable output."""
        out = [dict(zip(self._schema, row)) for row in self._rows]
        out.sort(key=lambda d: tuple(repr(d[a]) for a in self._schema))
        return out

    # -- hash index (used by joins) ------------------------------------------------

    def index_on(self, attrs: tuple[str, ...]) -> Mapping[tuple, list[tuple]]:
        """A hash index ``key tuple -> rows``; memoized per attribute list."""
        cached = self._index_cache.get(attrs)
        if cached is None:
            positions = [self.attr_pos(a) for a in attrs]
            cached = {}
            for row in self._rows:
                key = tuple(row[p] for p in positions)
                cached.setdefault(key, []).append(row)
            self._index_cache[attrs] = cached
        return cached

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Iterable[str], dicts: Iterable[Mapping[str, Any]]) -> "Relation":
        schema = tuple(schema)
        return cls(schema, (tuple(d[a] for a in schema) for d in dicts))

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width text table (benchmarks print these)."""
        header = list(self._schema)
        body = [[repr(v) for v in row] for row in sorted(self._rows, key=repr)[:max_rows]]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines += [" | ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body]
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Relation {','.join(self._schema)} ({len(self._rows)} rows)>"
