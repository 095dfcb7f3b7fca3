"""Compile-to-relational SQL backend (section 3, evaluation option 1).

"One obvious approach is to model the graph as a relational database and
then exploit a relational query language" -- this package does exactly
that, on stdlib :mod:`sqlite3`: snapshots load as edge/label tables
(plus DataGuide-derived wide tables for the record-shaped parts),
root-origin path-regex queries and Lorel's from/where core compile to
SQL (self-join chains, recursive-CTE fixpoints for closure), and every
query outside the compilable fragment raises :class:`NotCompilable` --
refuse, never approximate.  Callers reach it only by asking for it (the
service's and the CLI's ``sql`` engine); the differential test harness
in ``tests/differential`` cross-checks both engines on generated
databases and queries.
"""

from .backend import (
    LorelSqlBackend,
    SqlBackend,
    lorel_sql,
    lorel_sql_backend_for,
    sql_backend_for,
    unql_sql,
)
from .compiler import CompiledQuery, compile_rpq
from .encode import (
    WideCatalog,
    connect,
    encode_graph,
    encode_oem,
    encode_wide,
    register_functions,
)
from .errors import NotCompilable
from .joins import JoinGraph, JoinNode, greedy_order
from .lorel_sql import compile_lorel, oem_vocabulary

__all__ = [
    "NotCompilable",
    "CompiledQuery",
    "compile_rpq",
    "compile_lorel",
    "oem_vocabulary",
    "SqlBackend",
    "sql_backend_for",
    "LorelSqlBackend",
    "lorel_sql_backend_for",
    "lorel_sql",
    "unql_sql",
    "connect",
    "register_functions",
    "encode_graph",
    "encode_oem",
    "encode_wide",
    "WideCatalog",
    "JoinGraph",
    "JoinNode",
    "greedy_order",
]
