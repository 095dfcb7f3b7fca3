"""Adding structure to semistructured data (section 5).

* :mod:`~repro.schema.simulation` -- the simulation preorder;
* :mod:`~repro.schema.graphschema` -- predicate-labeled graph schemas and
  conformance;
* :mod:`~repro.schema.prune` -- schema-based query pruning;
* :mod:`~repro.schema.dataguide` -- strong DataGuides (automata
  equivalence / determinization);
* :mod:`~repro.schema.representative` -- degree-k representative objects;
* :mod:`~repro.schema.inference` -- schema discovery from data;
* :mod:`~repro.schema.to_relational` -- the passage back to structured
  (relational) form.
"""

from .acedb_schema import AcedbModelError, parse_acedb_model
from .dataguide import DataGuide, paths_equivalent, rpq_via_dataguide
from .graphschema import GraphSchema, SchemaEdge, SchemaError
from .inference import generalize_label, infer_schema
from .prune import predicates_may_overlap, pruned_rpq_nodes, schema_reachable_states
from .representative import k_bisimulation, representative_object, ro_path_exists
from .simulation import graph_simulation, maximal_simulation
from .to_relational import ExtractionReport, extract_tables

__all__ = [
    "maximal_simulation",
    "graph_simulation",
    "GraphSchema",
    "SchemaEdge",
    "SchemaError",
    "DataGuide",
    "paths_equivalent",
    "rpq_via_dataguide",
    "predicates_may_overlap",
    "schema_reachable_states",
    "pruned_rpq_nodes",
    "k_bisimulation",
    "representative_object",
    "ro_path_exists",
    "infer_schema",
    "generalize_label",
    "ExtractionReport",
    "extract_tables",
    "parse_acedb_model",
    "AcedbModelError",
]
