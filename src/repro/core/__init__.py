"""The semistructured data model (section 2 of Buneman, PODS '97).

This package is the substrate everything else builds on:

* :mod:`~repro.core.labels` -- the ``int | string | ... | symbol`` tagged
  union of edge labels;
* :mod:`~repro.core.graph` -- the rooted edge-labeled graph (UnQL model)
  with the horizontal constructors ``empty`` / ``singleton`` / ``union``;
* :mod:`~repro.core.frozen` -- the immutable CSR snapshot the fast query
  kernel traverses (``Graph.freeze()``);
* :mod:`~repro.core.oem` -- the leaf-value OEM variant with object ids;
* :mod:`~repro.core.node_labeled` -- the node-labeled variant and its
  extra-edge reduction;
* :mod:`~repro.core.convert` -- the mappings between the variants;
* :mod:`~repro.core.bisim` -- bisimulation (observational equality);
* :mod:`~repro.core.builder` -- ingestion from / egress to self-describing
  nested data, and Figure-1 style rendering;
* :mod:`~repro.core.oo_encode` -- the object-oriented database encoding.
"""

from .bisim import bisimilar, bisimulation_classes, graph_equal, reduce_graph
from .builder import from_obj, render, to_obj, tree
from .convert import graph_to_oem, oem_to_graph
from .frozen import FrozenGraph, freeze
from .graph import Edge, Graph, GraphError, disjoint_union
from .labels import Label, LabelKind, boolean, integer, label_of, real, string, sym
from .node_labeled import NodeLabeledGraph, from_edge_labeled, to_edge_labeled
from .oem import OemDatabase, OemObject, Oid
from .oo_encode import OoClass, OoDatabase, OoObject, graph_to_oo, oo_to_graph

__all__ = [
    "Label",
    "LabelKind",
    "sym",
    "string",
    "integer",
    "real",
    "boolean",
    "label_of",
    "Edge",
    "Graph",
    "GraphError",
    "FrozenGraph",
    "freeze",
    "disjoint_union",
    "bisimilar",
    "graph_equal",
    "bisimulation_classes",
    "reduce_graph",
    "from_obj",
    "to_obj",
    "tree",
    "render",
    "OemDatabase",
    "OemObject",
    "Oid",
    "oem_to_graph",
    "graph_to_oem",
    "NodeLabeledGraph",
    "to_edge_labeled",
    "from_edge_labeled",
    "OoDatabase",
    "OoClass",
    "OoObject",
    "oo_to_graph",
    "graph_to_oo",
]
