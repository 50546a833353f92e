"""The 15 benchmark applications of the paper's Table I, re-implemented
in the PTX subset over synthetic inputs.

Categories (Section IV): linear algebra (2mm, gaus, grm, lu, spmv),
image processing (htw, mriq, dwt, bpr, srad), graph (bfs, sssp, ccl,
mst, mis).  Use :func:`get_workload` to instantiate by name and
``Workload.run()`` to classify, execute and verify an application.
"""

from .base import ConvergenceError, Workload, WorkloadRun
from .data import (
    CSRGraph,
    CSRMatrix,
    diagonally_dominant_matrix,
    mri_trajectory,
    random_csr,
    random_matrix,
    random_vector,
    rmat_edges,
    rmat_graph,
    synthetic_image,
)
from .registry import (
    CATEGORIES,
    EXTENDED_CLASSES,
    WORKLOAD_CLASSES,
    WORKLOADS,
    get_workload,
    workload_names,
)

__all__ = [
    "ConvergenceError",
    "Workload",
    "WorkloadRun",
    "CSRGraph",
    "CSRMatrix",
    "diagonally_dominant_matrix",
    "mri_trajectory",
    "random_csr",
    "random_matrix",
    "random_vector",
    "rmat_edges",
    "rmat_graph",
    "synthetic_image",
    "CATEGORIES",
    "EXTENDED_CLASSES",
    "WORKLOAD_CLASSES",
    "WORKLOADS",
    "get_workload",
    "workload_names",
]
