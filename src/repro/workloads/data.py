"""Synthetic input generators for the workload suite.

The paper runs its applications on large reference inputs (Table I):
dense matrices, images, and real/synthetic graphs (including R-MAT
graphs, e.g. ``rmat.gr`` for bfs and ``rmat12.syn.gr`` for mst).  Those
files are not redistributable, so we generate inputs with the same
*structure*:

* dense float matrices with well-conditioned values (for the linear
  algebra apps),
* synthetic images: smooth gradients plus noise (for the image apps),
* R-MAT graphs in CSR form — the same recursive-matrix generator the
  Graph500 reference and the paper's inputs use — with skewed degree
  distributions that drive the irregular access patterns the paper
  studies.

Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# dense matrices / vectors
# ---------------------------------------------------------------------------


def random_matrix(n, m=None, seed=7, scale=1.0):
    """A dense float32 matrix with entries in [0.1, 1.1) — bounded away
    from zero so elimination-style kernels stay numerically stable."""
    m = n if m is None else m
    return (rng(seed).random((n, m), dtype=np.float32) * scale
            + np.float32(0.1))


def diagonally_dominant_matrix(n, seed=7):
    """A strictly diagonally dominant float32 matrix — safe for Gaussian
    elimination and LU decomposition without pivoting."""
    a = rng(seed).random((n, n), dtype=np.float32) + np.float32(0.1)
    a[np.arange(n), np.arange(n)] += np.float32(n)
    return a


def random_vector(n, seed=7):
    return rng(seed).random(n, dtype=np.float32) + np.float32(0.1)


# ---------------------------------------------------------------------------
# sparse matrices (CSR)
# ---------------------------------------------------------------------------


@dataclass
class CSRMatrix:
    """A float32 CSR sparse matrix (the spmv input format)."""

    num_rows: int
    num_cols: int
    row_ptr: np.ndarray   # int32, len num_rows+1
    col_idx: np.ndarray   # int32, len nnz
    values: np.ndarray    # float32, len nnz

    @property
    def nnz(self):
        return len(self.values)

    def to_dense(self):
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.float64)
        for r in range(self.num_rows):
            for j in range(self.row_ptr[r], self.row_ptr[r + 1]):
                dense[r, self.col_idx[j]] += self.values[j]
        return dense

    def multiply(self, x):
        """Reference SpMV (float64 accumulation)."""
        y = np.zeros(self.num_rows, dtype=np.float64)
        for r in range(self.num_rows):
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            y[r] = np.dot(self.values[lo:hi].astype(np.float64),
                          x[self.col_idx[lo:hi]].astype(np.float64))
        return y


def random_csr(num_rows, num_cols=None, avg_nnz_per_row=8, seed=7,
               skew=0.35):
    """A random CSR matrix with a skewed column distribution.

    ``skew`` biases column picks toward low indices (power-law-ish), which
    produces the partially irregular, partially clustered accesses sparse
    solvers see on real meshes like the paper's ``Dubcova3`` input.
    """
    num_cols = num_rows if num_cols is None else num_cols
    r = rng(seed)
    row_ptr = [0]
    cols = []
    vals = []
    for _row in range(num_rows):
        nnz = max(1, int(r.poisson(avg_nnz_per_row)))
        nnz = min(nnz, num_cols)
        raw = (r.random(nnz) ** (1.0 / max(skew, 1e-6)) * num_cols)
        picked = sorted(set(int(c) % num_cols for c in raw))
        cols.extend(picked)
        vals.extend(r.random(len(picked)) + 0.1)
        row_ptr.append(len(cols))
    return CSRMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        row_ptr=np.asarray(row_ptr, dtype=np.int32),
        col_idx=np.asarray(cols, dtype=np.int32),
        values=np.asarray(vals, dtype=np.float32),
    )


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


def synthetic_image(rows, cols, seed=7):
    """A float32 image: smooth 2-D gradient + texture noise, range [0, 1).

    Structured enough that window-based kernels (heartwall, srad) compute
    meaningful statistics, noisy enough that nothing degenerates to zero.
    """
    r = rng(seed)
    y = np.linspace(0.0, 1.0, rows, dtype=np.float32)[:, None]
    x = np.linspace(0.0, 1.0, cols, dtype=np.float32)[None, :]
    base = 0.5 + 0.25 * np.sin(6.0 * x) * np.cos(4.0 * y)
    noise = 0.1 * r.random((rows, cols), dtype=np.float32)
    return np.clip(base + noise, 0.0, 0.999).astype(np.float32)


# ---------------------------------------------------------------------------
# graphs (CSR adjacency)
# ---------------------------------------------------------------------------


@dataclass
class CSRGraph:
    """A directed graph in CSR form with int32 edge weights.

    The layout matches the Rodinia / LonestarGPU inputs the paper uses:
    ``row_ptr[v]..row_ptr[v+1]`` index into ``col_idx`` (neighbour ids)
    and ``weights`` (edge weights).
    """

    num_nodes: int
    row_ptr: np.ndarray   # int32, len num_nodes+1
    col_idx: np.ndarray   # int32, len num_edges
    weights: np.ndarray   # int32, len num_edges

    @property
    def num_edges(self):
        return len(self.col_idx)

    def neighbors(self, v):
        lo, hi = self.row_ptr[v], self.row_ptr[v + 1]
        return self.col_idx[lo:hi]

    def degree(self, v):
        return int(self.row_ptr[v + 1] - self.row_ptr[v])


def rmat_edges(num_nodes, num_edges, seed=7,
               a=0.45, b=0.22, c=0.22):
    """Generate R-MAT edge pairs (the Graph500 recursive-matrix model).

    Each edge picks its (src, dst) by descending a 2x2 probability
    quadrant ``[[a, b], [c, d]]`` log2(n) times, yielding the skewed,
    community-structured degree distribution of the paper's rmat inputs.
    """
    r = rng(seed)
    scale = int(np.ceil(np.log2(max(num_nodes, 2))))
    d = 1.0 - a - b - c
    probs = np.cumsum([a, b, c, d])
    srcs = np.zeros(num_edges, dtype=np.int64)
    dsts = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        quadrant = np.searchsorted(probs, r.random(num_edges))
        srcs = (srcs << 1) | (quadrant >> 1)
        dsts = (dsts << 1) | (quadrant & 1)
    srcs %= num_nodes
    dsts %= num_nodes
    return srcs.astype(np.int64), dsts.astype(np.int64)


def rmat_graph(num_nodes, avg_degree=8, seed=7, symmetric=True,
               max_weight=100):
    """An R-MAT graph in CSR form.

    ``symmetric=True`` mirrors every edge (the Rodinia graph inputs are
    undirected).  Self-loops and duplicate edges are removed; isolated
    nodes may remain — graph kernels must tolerate them, as the paper's
    applications do.
    """
    num_edges = num_nodes * avg_degree
    srcs, dsts = rmat_edges(num_nodes, num_edges, seed=seed)
    if symmetric:
        srcs, dsts = (np.concatenate([srcs, dsts]),
                      np.concatenate([dsts, srcs]))
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    pairs = np.unique(np.stack([srcs, dsts], axis=1), axis=0)
    srcs, dsts = pairs[:, 0], pairs[:, 1]

    order = np.lexsort((dsts, srcs))
    srcs, dsts = srcs[order], dsts[order]
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(row_ptr, srcs + 1, 1)
    row_ptr = np.cumsum(row_ptr)

    r = rng(seed + 1)
    weights = r.integers(1, max_weight + 1, size=len(dsts), dtype=np.int64)
    if symmetric:
        # make mirrored edges carry equal weights: weight from unordered pair
        lo = np.minimum(srcs, dsts)
        hi = np.maximum(srcs, dsts)
        weights = ((lo * 2654435761 + hi * 40503) % max_weight + 1)
    return CSRGraph(
        num_nodes=num_nodes,
        row_ptr=row_ptr.astype(np.int32),
        col_idx=dsts.astype(np.int32),
        weights=weights.astype(np.int32),
    )


# ---------------------------------------------------------------------------
# MRI trajectory (mriq input)
# ---------------------------------------------------------------------------


def mri_trajectory(num_samples, num_voxels, seed=7):
    """Synthetic k-space samples + voxel coordinates for the MRI-Q kernel.

    Returns ``(kx, ky, kz, phi_r, phi_i, x, y, z)`` float32 arrays shaped
    like Parboil's ``64_64_64`` dataset (scaled down)."""
    r = rng(seed)
    kx = (r.random(num_samples, dtype=np.float32) - 0.5) * 2.0
    ky = (r.random(num_samples, dtype=np.float32) - 0.5) * 2.0
    kz = (r.random(num_samples, dtype=np.float32) - 0.5) * 2.0
    phi_r = r.random(num_samples, dtype=np.float32)
    phi_i = r.random(num_samples, dtype=np.float32)
    x = r.random(num_voxels, dtype=np.float32)
    y = r.random(num_voxels, dtype=np.float32)
    z = r.random(num_voxels, dtype=np.float32)
    return kx, ky, kz, phi_r, phi_i, x, y, z
