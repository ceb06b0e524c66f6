"""A miniature Spark-like execution substrate.

The paper accelerates the eigenvalue computation "using Spark framework
which can significantly reduce the computing time" (Fig. 9's fourth
series).  A real Spark cluster is out of scope for a laptop reproduction,
so this package provides the closest working equivalent: an in-process
cluster with named workers, an RDD-style partitioned dataset with lazy
map/filter/reduce, block-partitioned distributed matrices, and a
distributed Fiedler solver whose matrix-vector products fan out across
the workers.  numpy releases the GIL inside BLAS kernels, so the thread
workers deliver genuine parallel speed-up on the matvec-heavy eigen loop.
"""

from repro.distributed.cluster import ClusterStats, LocalCluster
from repro.distributed.executor import SerialExecutor, TaskExecutor, ThreadedExecutor
from repro.distributed.matrix import BlockMatrix
from repro.distributed.rdd import RDD
from repro.distributed.spark_spectral import DistributedFiedlerSolver

__all__ = [
    "LocalCluster",
    "ClusterStats",
    "TaskExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "RDD",
    "BlockMatrix",
    "DistributedFiedlerSolver",
]
