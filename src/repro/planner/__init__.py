"""Cost- and index-driven Lorel planning (section 4).

The paper's optimization story for semistructured queries is structural:
*"the addition of path ... indices on labels"*.  The structures
themselves are library code (:mod:`repro.index`, the DataGuide of
:mod:`repro.schema`); path queries walk the CSR kernel of
:mod:`repro.automata.product`, whose adjacency is already the index.
This package holds what Lorel evaluation consults:

* :class:`GraphStatistics` -- label frequencies and value selectivities
  collected at freeze time, driving the cost-based Lorel clause
  reordering of :func:`repro.lorel.reorder_from_clauses`;
* :mod:`repro.planner.pushdown` -- Lorel ``where``-clause predicate
  pushdown: comparisons over fixed symbol paths resolve through an
  :class:`~repro.planner.pushdown.OemIndexes` value index into candidate
  oid sets that seed the binding traversal instead of post-filtering it.
"""

from __future__ import annotations

from .pushdown import OemIndexes, oem_indexes_for, pushdown_candidates
from .stats import GraphStatistics

__all__ = [
    "GraphStatistics",
    "OemIndexes",
    "oem_indexes_for",
    "pushdown_candidates",
]
