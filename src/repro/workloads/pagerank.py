"""pagerank — pull-based PageRank over a CSR graph.

Part of the *extended* suite: the archetypal iterative graph-analytics
kernel the paper's introduction motivates.  Each vertex pulls
``rank[u] / degree[u]`` from its in-neighbours — both indexed through
the loaded edge array, so like bfs the hot loads are non-deterministic.
The host iterates a fixed number of power-method steps with ping-pong
rank buffers and verifies against :func:`pagerank_reference`.
"""

from __future__ import annotations

import numpy as np

from .base import Workload
from .graph_common import alloc_graph, default_graph

#: damping factor (the standard 0.85)
DAMPING = 0.85

_PTX = """
.entry pagerank_pull (
    .param .u64 row_ptr,
    .param .u64 col_idx,
    .param .u64 rank_in,
    .param .u64 rank_out,
    .param .u64 inv_degree,
    .param .f32 base_rank,
    .param .u32 num_nodes
)
{
    .reg .u32 %r<14>;
    mov.u32        %r1, %ctaid.x;
    mov.u32        %r2, %ntid.x;
    mov.u32        %r3, %tid.x;
    mad.lo.u32     %r4, %r1, %r2, %r3;     // v
    ld.param.u32   %r5, [num_nodes];
    setp.ge.u32    %p1, %r4, %r5;
    @%p1 bra       EXIT;
    ld.param.u64   %rd1, [row_ptr];
    cvt.u64.u32    %rd2, %r4;
    shl.b64        %rd3, %rd2, 2;
    add.u64        %rd4, %rd1, %rd3;
    ld.global.u32  %r6, [%rd4];            // start         (deterministic)
    ld.global.u32  %r7, [%rd4+4];          // end           (deterministic)
    ld.param.u64   %rd5, [col_idx];
    ld.param.u64   %rd6, [rank_in];
    ld.param.u64   %rd7, [inv_degree];
    mov.f32        %f1, 0.0;               // pulled mass
    mov.u32        %r8, %r6;               // i = start (loaded!)
LOOP:
    setp.ge.u32    %p2, %r8, %r7;
    @%p2 bra       DONE;
    cvt.u64.u32    %rd8, %r8;
    shl.b64        %rd9, %rd8, 2;
    add.u64        %rd10, %rd5, %rd9;
    ld.global.u32  %r9, [%rd10];           // u = edges[i] (NON-deterministic)
    cvt.u64.u32    %rd11, %r9;
    shl.b64        %rd12, %rd11, 2;
    add.u64        %rd13, %rd6, %rd12;
    ld.global.f32  %f2, [%rd13];           // rank[u]      (NON-deterministic)
    add.u64        %rd14, %rd7, %rd12;
    ld.global.f32  %f3, [%rd14];           // 1/deg[u]     (NON-deterministic)
    mad.f32        %f1, %f2, %f3, %f1;
    add.u32        %r8, %r8, 1;
    bra            LOOP;
DONE:
    // rank'[v] = (1 - d)/n + d * pulled
    ld.param.f32   %f4, [base_rank];
    mad.f32        %f5, %f1, 0.85, %f4;
    ld.param.u64   %rd15, [rank_out];
    add.u64        %rd16, %rd15, %rd3;
    st.global.f32  [%rd16], %f5;
EXIT:
    exit;
}
"""


def pagerank_reference(graph, iterations):
    """Power-method reference with the same dangling-node handling
    (dangling mass is dropped, matching the device kernel)."""
    n = graph.num_nodes
    degree = np.diff(graph.row_ptr).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    base = (1.0 - DAMPING) / n
    inv_degree = np.where(degree > 0, 1.0 / np.maximum(degree, 1), 0.0)
    for _ in range(iterations):
        contribution = rank * inv_degree
        pulled = np.zeros(n)
        for v in range(n):
            lo, hi = graph.row_ptr[v], graph.row_ptr[v + 1]
            pulled[v] = contribution[graph.col_idx[lo:hi]].sum()
        rank = base + DAMPING * pulled
    return rank


class PageRank(Workload):
    """Pull-based PageRank power iterations."""

    name = "pagerank"
    category = "graph"
    extended = True

    description = "PageRank power iterations (extended suite)"

    BLOCK = 128
    ITERS = 3

    def __init__(self, scale=1.0, seed=7):
        super().__init__(scale=scale, seed=seed)
        self.graph = None

    def ptx(self):
        return _PTX

    def setup(self, mem):
        self.graph = default_graph(self, base_nodes=1024)
        n = self.graph.num_nodes
        self.data_set = "R-MAT graph, %d nodes / %d edges, %d iters" % (
            n, self.graph.num_edges, self.ITERS)
        self.ptrs = alloc_graph(mem, self.graph)
        degree = np.diff(self.graph.row_ptr).astype(np.float64)
        inv_degree = np.where(degree > 0, 1.0 / np.maximum(degree, 1),
                              0.0).astype(np.float32)
        rank0 = np.full(n, 1.0 / n, dtype=np.float32)
        self.ptrs["rank_a"] = mem.alloc_array("rank_a", rank0)
        self.ptrs["rank_b"] = mem.alloc("rank_b", n * 4)
        self.ptrs["inv_degree"] = mem.alloc_array("inv_degree", inv_degree)
        self.final_buffer = "rank_a"

    def host(self, emu, module):
        kernel = module["pagerank_pull"]
        n = self.graph.num_nodes
        grid = (max(1, -(-n // self.BLOCK)),)
        src, dst = self.ptrs["rank_a"], self.ptrs["rank_b"]
        names = {self.ptrs["rank_a"]: "rank_a",
                 self.ptrs["rank_b"]: "rank_b"}
        for _ in range(self.ITERS):
            yield emu.launch(kernel, grid, (self.BLOCK,), params={
                "row_ptr": self.ptrs["row_ptr"],
                "col_idx": self.ptrs["col_idx"],
                "rank_in": src, "rank_out": dst,
                "inv_degree": self.ptrs["inv_degree"],
                "base_rank": (1.0 - DAMPING) / n,
                "num_nodes": n})
            src, dst = dst, src
        self.final_buffer = names[src]

    def verify(self, mem):
        n = self.graph.num_nodes
        rank = mem.read_array(self.final_buffer, np.float32, n)
        expected = pagerank_reference(self.graph, self.ITERS)
        if not np.allclose(rank, expected, rtol=1e-3, atol=1e-6):
            raise AssertionError("pagerank: rank vector mismatch")
