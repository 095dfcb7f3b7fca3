"""Distributed query decomposition (section 4, Suciu VLDB '96).

Two runtimes share one decomposition scheme: :mod:`~repro.distributed.
decompose` simulates the BSP supersteps in-process (the reference the
profiles pin), and :mod:`~repro.distributed.parallel` runs them for real
-- OS-process sites traversing one shared-memory CSR snapshot, partitioned
by the strategies in :mod:`~repro.distributed.partition`.
"""

from .decompose import (
    DistributedStats,
    SiteRuntime,
    centralized_work,
    distributed_rpq,
)
from .parallel import (
    PARALLEL_METRICS,
    ParallelError,
    ParallelResult,
    ParallelRpqPool,
    ParallelStats,
    parallel_rpq,
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
    "ParallelRpqPool",
    "ParallelError",
    "ParallelResult",
    "ParallelStats",
    "parallel_rpq",
    "PARALLEL_METRICS",
]
