"""Distributed query decomposition (section 4, Suciu VLDB '96).

One runtime, in process: :mod:`~repro.distributed.sites` assigns every
node to a site (by the strategies of :mod:`~repro.distributed.partition`
or its own), :mod:`~repro.distributed.decompose` simulates the BSP
supersteps of a path query over that segmentation -- per-site local
expansion, boundary configurations as messages -- and counts what the
wire would carry, and :mod:`~repro.distributed.srec_decompose` does the
same for structural recursion.  Site failures are injected per delivery
(:class:`SiteRuntime`), and the answer under dead sites is checked
against the centralized answer without them.
"""

from .decompose import (
    DistributedStats,
    SiteRuntime,
    centralized_work,
    distributed_rpq,
)
from .partition import (
    PARTITION_STRATEGIES,
    Partition,
    PartitionStats,
    build_partition,
)
from .sites import DistributedGraph, partition_graph
from .srec_decompose import SrecStats, distributed_srec

__all__ = [
    "DistributedGraph",
    "partition_graph",
    "Partition",
    "PartitionStats",
    "PARTITION_STRATEGIES",
    "build_partition",
    "distributed_rpq",
    "distributed_srec",
    "centralized_work",
    "DistributedStats",
    "SrecStats",
    "SiteRuntime",
]
