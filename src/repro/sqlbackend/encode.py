"""Loading snapshots into sqlite: the relational side of the bridge.

The paper's section 3 names "model the graph as a relational database
and then exploit a relational query language" as the first evaluation
strategy for semistructured queries.  This module is that modelling
step, concretely, on stdlib :mod:`sqlite3`:

* a :class:`~repro.core.frozen.FrozenGraph` becomes ``edge(src, lid,
  dst)`` plus a ``label(lid, kind, value)`` dictionary -- the interned
  label-id space is shared with the frozen kernel, so a compiled SQL
  plan and a compiled automaton speak the same alphabet;
* an :class:`~repro.core.oem.OemDatabase` becomes ``oem_edge(src, pos,
  label, dst)`` / ``oem_atom(oid, kind, value)`` / ``oem_name(name,
  oid)`` -- the sqlite image of
  :func:`repro.relational.encode.oem_to_relations`, whose round-trip
  identity the property suite pins.

Lorel's coercing comparisons cannot be expressed in sqlite's own
operators (its ``LIKE`` is case-insensitive, its ``CAST`` parses
differently from Python), so :func:`register_functions` installs the
*actual* :mod:`repro.lorel.coerce` functions as deterministic UDFs --
one source of truth for both engines, which is what makes differential
equality provable rather than approximate.
"""

from __future__ import annotations

import sqlite3
from itertools import chain, islice, repeat
from operator import sub
from typing import TYPE_CHECKING

from ..core.labels import Label
from ..lorel.coerce import compare_values, like_value
from ..relational.encode import _atom_kind, _decode_atom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.frozen import FrozenGraph
    from ..core.oem import OemDatabase

__all__ = [
    "connect",
    "register_functions",
    "encode_graph",
    "encode_oem",
    "store_label",
    "load_label",
]


def store_label(label: Label) -> tuple[str, object]:
    """``(kind, storage value)`` of a label; bools stored as 0/1."""
    value = label.value
    if isinstance(value, bool):
        value = int(value)
    return label.kind.value, value


def load_label(kind: str, value: object) -> object:
    """Inverse of :func:`store_label` for the Python-side value."""
    if kind == "bool":
        return bool(value)
    return value


def register_functions(conn: sqlite3.Connection) -> None:
    """Install Lorel's coercions as deterministic scalar UDFs.

    ``lorel_cmp(kind1, value1, op, kind2, value2)`` and
    ``lorel_like(kind, value, pattern)`` decode the (kind, storage)
    pairs back into Python atoms and delegate to
    :mod:`repro.lorel.coerce` -- so ``"1942" = 1942`` holds in SQL
    exactly when it holds natively, and ``like`` is case-sensitive
    ``fnmatchcase``, not sqlite's ``LIKE``.
    """

    def lorel_cmp(k1: str, v1: object, op: str, k2: str, v2: object) -> int:
        return int(compare_values(_decode_atom(k1, v1), op, _decode_atom(k2, v2)))

    def lorel_like(kind: str, value: object, pattern: str) -> int:
        return int(like_value(_decode_atom(kind, value), pattern))

    conn.create_function("lorel_cmp", 5, lorel_cmp, deterministic=True)
    conn.create_function("lorel_like", 3, lorel_like, deterministic=True)


def connect() -> sqlite3.Connection:
    """A fresh in-memory database with the UDFs installed."""
    conn = sqlite3.connect(":memory:")
    register_functions(conn)
    return conn


def encode_graph(conn: sqlite3.Connection, fg: "FrozenGraph") -> None:
    """Load a frozen snapshot as ``edge`` + ``label`` tables.

    ``lid`` is the snapshot's own interned label id, loaded straight
    from the CSR arrays (one executemany, no Label objects touched);
    the covering index on ``(lid, src, dst)`` is what the chain
    compiler's per-step lookups scan, and ``(src, lid)`` serves the
    seeded direction.
    """
    conn.executescript(
        """
        CREATE TABLE edge (src INTEGER NOT NULL, lid INTEGER NOT NULL,
                           dst INTEGER NOT NULL);
        CREATE TABLE label (lid INTEGER PRIMARY KEY, kind TEXT NOT NULL, value);
        """
    )
    # each block's node id repeated over its out-degree: the edges' sources
    offsets = fg.offsets
    degrees = map(sub, islice(offsets, 1, None), offsets)
    srcs = chain.from_iterable(map(repeat, fg.node_ids, degrees))
    conn.executemany("INSERT INTO edge VALUES (?, ?, ?)", zip(srcs, fg.label_ids, fg.targets))
    rows = ((lid, *store_label(label)) for lid, label in enumerate(fg.labels_seq))
    conn.executemany("INSERT INTO label VALUES (?, ?, ?)", rows)
    conn.executescript(
        """
        CREATE INDEX edge_src ON edge(src, lid);
        CREATE INDEX edge_lid ON edge(lid, src, dst);
        CREATE INDEX edge_dst ON edge(dst, lid, src);
        """
    )
    conn.commit()


def encode_oem(conn: sqlite3.Connection, db: "OemDatabase") -> None:
    """Load an OEM database as ``oem_edge`` / ``oem_atom`` / ``oem_name``.

    The sqlite image of :func:`repro.relational.encode.oem_to_relations`
    (same schemas, same kind discriminators); atoms store bools as 0/1
    with ``kind='bool'``, so sqlite's numeric affinity cannot conflate
    ``True`` with ``1`` -- comparisons always go through the UDFs, which
    decode by kind first.
    """
    conn.executescript(
        """
        CREATE TABLE oem_edge (src INTEGER NOT NULL, pos INTEGER NOT NULL,
                               label TEXT NOT NULL, dst INTEGER NOT NULL);
        CREATE TABLE oem_atom (oid INTEGER PRIMARY KEY, kind TEXT NOT NULL, value);
        CREATE TABLE oem_name (name TEXT PRIMARY KEY, oid INTEGER NOT NULL);
        """
    )
    edge_rows: list[tuple] = []
    atom_rows: list[tuple] = []
    for oid in sorted(db.oids()):
        obj = db.get(oid)
        if obj.is_atomic:
            atom = obj.atom
            atom_rows.append(
                (oid, _atom_kind(atom), int(atom) if isinstance(atom, bool) else atom)
            )
            continue
        for pos, (label, child) in enumerate(obj.children):
            edge_rows.append((oid, pos, label, child))
    conn.executemany("INSERT INTO oem_edge VALUES (?, ?, ?, ?)", edge_rows)
    conn.executemany("INSERT INTO oem_atom VALUES (?, ?, ?)", atom_rows)
    conn.executemany("INSERT INTO oem_name VALUES (?, ?)", sorted(db.names.items()))
    conn.executescript(
        """
        CREATE INDEX oem_edge_src ON oem_edge(src, label, dst);
        CREATE INDEX oem_edge_label ON oem_edge(label, src, dst);
        """
    )
    conn.commit()
