"""repro -- a reproduction of "Semistructured Data" (Buneman, PODS 1997).

The package implements the full system inventory of the tutorial: the
edge-labeled graph data model and its OEM / node-labeled variants, the UnQL
language with cycle-safe structural recursion, a Lorel-style SQL-like
language with general path expressions, graph datalog, the relational
encoding and the UnQL-to-relational translation, label/value/path indexes,
graph schemas with simulation-based conformance, DataGuides, representative
objects, distributed query decomposition, and a durable storage layer.

Quickstart::

    from repro import tree
    from repro.unql import unql

    db = tree({"Entry": [{"Movie": {"Title": "Casablanca",
                                    "Cast": ["Bogart", "Bacall"]}}]})
    result = unql('select t where {Entry: {Movie: {Title: \\t}}} in db', db=db)

See README.md for the architecture overview and examples/ for runnable
programs.
"""

from .core import (
    Graph,
    Label,
    LabelKind,
    OemDatabase,
    bisimilar,
    from_obj,
    graph_to_oem,
    integer,
    label_of,
    oem_to_graph,
    real,
    reduce_graph,
    render,
    string,
    sym,
    to_obj,
    tree,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Label",
    "LabelKind",
    "OemDatabase",
    "bisimilar",
    "from_obj",
    "to_obj",
    "tree",
    "render",
    "reduce_graph",
    "sym",
    "string",
    "integer",
    "real",
    "label_of",
    "oem_to_graph",
    "graph_to_oem",
    "__version__",
]
