"""Unit and property tests for the synthetic input generators."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.workloads.data import (
    diagonally_dominant_matrix,
    mri_trajectory,
    random_csr,
    random_matrix,
    random_vector,
    rmat_graph,
    synthetic_image,
)


class TestMatrices:
    def test_random_matrix_bounds(self):
        m = random_matrix(16)
        assert m.shape == (16, 16)
        assert m.dtype == np.float32
        assert (m >= 0.1).all()

    def test_rectangular(self):
        assert random_matrix(4, 6).shape == (4, 6)

    def test_diagonally_dominant(self):
        a = diagonally_dominant_matrix(12)
        for i in range(12):
            off = np.abs(a[i]).sum() - abs(a[i, i])
            assert abs(a[i, i]) > off

    def test_deterministic_by_seed(self):
        assert np.array_equal(random_matrix(8, seed=3),
                              random_matrix(8, seed=3))
        assert not np.array_equal(random_matrix(8, seed=3),
                                  random_matrix(8, seed=4))

    def test_vector(self):
        v = random_vector(10)
        assert v.shape == (10,)
        assert (v > 0).all()


class TestCSR:
    def test_structure_valid(self):
        csr = random_csr(32, avg_nnz_per_row=4)
        assert csr.row_ptr[0] == 0
        assert csr.row_ptr[-1] == csr.nnz
        assert (np.diff(csr.row_ptr) >= 0).all()
        assert (csr.col_idx >= 0).all()
        assert (csr.col_idx < csr.num_cols).all()

    def test_columns_sorted_within_rows(self):
        csr = random_csr(16, avg_nnz_per_row=6)
        for r in range(csr.num_rows):
            cols = csr.col_idx[csr.row_ptr[r]:csr.row_ptr[r + 1]]
            assert list(cols) == sorted(set(cols))

    def test_multiply_matches_dense(self):
        csr = random_csr(12, avg_nnz_per_row=3, seed=5)
        x = np.arange(12, dtype=np.float64)
        assert np.allclose(csr.multiply(x), csr.to_dense() @ x)

    @given(st.integers(4, 40), st.integers(1, 6), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_csr_invariants_property(self, rows, nnz, seed):
        csr = random_csr(rows, avg_nnz_per_row=nnz, seed=seed)
        assert len(csr.row_ptr) == rows + 1
        assert len(csr.col_idx) == len(csr.values) == csr.nnz
        assert (csr.values > 0).all()


class TestImages:
    def test_range(self):
        img = synthetic_image(32, 48)
        assert img.shape == (32, 48)
        assert img.min() >= 0.0
        assert img.max() < 1.0

    def test_not_constant(self):
        img = synthetic_image(16, 16)
        assert img.std() > 0.01


class TestGraphs:
    def test_csr_adjacency_valid(self):
        g = rmat_graph(128, avg_degree=4, seed=2)
        assert g.row_ptr[0] == 0
        assert g.row_ptr[-1] == g.num_edges
        assert (g.col_idx < g.num_nodes).all()
        assert (g.col_idx >= 0).all()

    def test_no_self_loops(self):
        g = rmat_graph(64, avg_degree=4)
        for v in range(g.num_nodes):
            assert v not in g.neighbors(v)

    def test_symmetric_edges(self):
        g = rmat_graph(64, avg_degree=4, symmetric=True)
        edges = set()
        for v in range(g.num_nodes):
            for u in g.neighbors(v):
                edges.add((v, int(u)))
        for v, u in edges:
            assert (u, v) in edges

    def test_symmetric_weights_equal(self):
        g = rmat_graph(64, avg_degree=4, symmetric=True)
        weight = {}
        for v in range(g.num_nodes):
            lo, hi = g.row_ptr[v], g.row_ptr[v + 1]
            for j in range(lo, hi):
                u = int(g.col_idx[j])
                weight[(v, u)] = int(g.weights[j])
        for (v, u), w in weight.items():
            assert weight[(u, v)] == w

    def test_weights_positive(self):
        g = rmat_graph(64, avg_degree=4, max_weight=50)
        assert (g.weights >= 1).all()
        assert (g.weights <= 50).all()

    def test_skewed_degrees(self):
        # R-MAT graphs must have a skewed degree distribution
        g = rmat_graph(512, avg_degree=8, seed=1)
        degrees = np.diff(g.row_ptr)
        assert degrees.max() > 4 * max(1, int(degrees.mean()))

    @given(st.integers(8, 128), st.integers(1, 8), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_rmat_invariants_property(self, nodes, degree, seed):
        g = rmat_graph(nodes, avg_degree=degree, seed=seed)
        assert len(g.row_ptr) == nodes + 1
        assert g.row_ptr[-1] == len(g.col_idx) == len(g.weights)
        assert (np.diff(g.row_ptr) >= 0).all()


class TestMRI:
    def test_shapes(self):
        kx, ky, kz, pr, pi, x, y, z = mri_trajectory(16, 64)
        for arr in (kx, ky, kz, pr, pi):
            assert arr.shape == (16,)
        for arr in (x, y, z):
            assert arr.shape == (64,)
        assert kx.dtype == np.float32
