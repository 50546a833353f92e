"""mst — minimum-spanning-forest construction (LonestarGPU ``mst``,
Boruvka formulation, simplified to its memory idioms).

Each round: (1) every component root scans its nodes' incident edges and
each node records its minimum-weight outgoing edge that leaves its
component (non-deterministic weight/label loads); (2) components are
merged along the chosen edges with a pointer-doubling hook/compress
phase (``succ[succ[v]]`` — the doubly indirect loads that dominate mst's
memory traffic).  The host iterates rounds until no component merged.

The chosen edges form a minimum spanning forest under the deterministic
(weight, destination-id) tie-break, which the verifier recomputes on the
host with the exact same rule.
"""

from __future__ import annotations

import numpy as np

from ..ptx.isa import DType
from .base import ConvergenceError, Workload
from .graph_common import alloc_graph, default_graph

_U32 = DType.U32

#: sentinel "no outgoing edge" key (all ones).
NO_EDGE = 0xFFFFFFFF

_PTX = """
.entry mst_find_min (
    .param .u64 row_ptr,
    .param .u64 col_idx,
    .param .u64 weights,
    .param .u64 comp,
    .param .u64 best_key,
    .param .u64 best_dst,
    .param .u32 num_nodes
)
{
    // per node: find the min-(weight, dst) edge leaving its component
    .reg .u32 %r<20>;
    mov.u32        %r1, %ctaid.x;
    mov.u32        %r2, %ntid.x;
    mov.u32        %r3, %tid.x;
    mad.lo.u32     %r4, %r1, %r2, %r3;     // v
    ld.param.u32   %r5, [num_nodes];
    setp.ge.u32    %p1, %r4, %r5;
    @%p1 bra       EXIT;
    ld.param.u64   %rd1, [comp];
    cvt.u64.u32    %rd2, %r4;
    shl.b64        %rd3, %rd2, 2;
    add.u64        %rd4, %rd1, %rd3;
    ld.global.u32  %r6, [%rd4];            // comp[v]       (deterministic)
    ld.param.u64   %rd5, [row_ptr];
    add.u64        %rd6, %rd5, %rd3;
    ld.global.u32  %r7, [%rd6];            // start         (deterministic)
    ld.global.u32  %r8, [%rd6+4];          // end           (deterministic)
    ld.param.u64   %rd7, [col_idx];
    ld.param.u64   %rd8, [weights];
    mov.u32        %r9, %r7;               // i
    mov.u32        %r10, 0xFFFFFFFF;       // best key
    mov.u32        %r11, 0xFFFFFFFF;       // best dst
LOOP:
    setp.ge.u32    %p2, %r9, %r8;
    @%p2 bra       DONE;
    cvt.u64.u32    %rd9, %r9;
    shl.b64        %rd10, %rd9, 2;
    add.u64        %rd11, %rd7, %rd10;
    ld.global.u32  %r12, [%rd11];          // u = edges[i] (NON-deterministic)
    cvt.u64.u32    %rd12, %r12;
    shl.b64        %rd13, %rd12, 2;
    add.u64        %rd14, %rd1, %rd13;
    ld.global.u32  %r13, [%rd14];          // comp[u]      (NON-deterministic)
    setp.eq.u32    %p3, %r13, %r6;
    @%p3 bra       NEXT;                   // same component: skip
    add.u64        %rd15, %rd8, %rd10;
    ld.global.u32  %r14, [%rd15];          // w[i]         (NON-deterministic)
    // key = (w << 12) | (u & 0xfff): min-weight, dst-id tie-break
    shl.b32        %r15, %r14, 12;
    and.b32        %r16, %r12, 4095;
    or.b32         %r17, %r15, %r16;
    setp.ge.u32    %p4, %r17, %r10;
    @%p4 bra       NEXT;
    mov.u32        %r10, %r17;
    mov.u32        %r11, %r13;             // remember target component
NEXT:
    add.u32        %r9, %r9, 1;
    bra            LOOP;
DONE:
    ld.param.u64   %rd16, [best_key];
    add.u64        %rd17, %rd16, %rd3;
    st.global.u32  [%rd17], %r10;
    ld.param.u64   %rd18, [best_dst];
    add.u64        %rd19, %rd18, %rd3;
    st.global.u32  [%rd19], %r11;
EXIT:
    exit;
}

.entry mst_reduce_comp (
    .param .u64 comp,
    .param .u64 best_key,
    .param .u64 best_dst,
    .param .u64 comp_key,
    .param .u64 comp_dst,
    .param .u32 num_nodes
)
{
    // reduce each node's candidate into its component root via atom.min
    .reg .u32 %r<16>;
    mov.u32        %r1, %ctaid.x;
    mov.u32        %r2, %ntid.x;
    mov.u32        %r3, %tid.x;
    mad.lo.u32     %r4, %r1, %r2, %r3;     // v
    ld.param.u32   %r5, [num_nodes];
    setp.ge.u32    %p1, %r4, %r5;
    @%p1 bra       EXIT;
    ld.param.u64   %rd1, [best_key];
    cvt.u64.u32    %rd2, %r4;
    shl.b64        %rd3, %rd2, 2;
    add.u64        %rd4, %rd1, %rd3;
    ld.global.u32  %r6, [%rd4];            // key[v]        (deterministic)
    setp.eq.u32    %p2, %r6, 0xFFFFFFFF;
    @%p2 bra       EXIT;
    ld.param.u64   %rd5, [comp];
    add.u64        %rd6, %rd5, %rd3;
    ld.global.u32  %r7, [%rd6];            // c = comp[v]   (deterministic)
    cvt.u64.u32    %rd7, %r7;
    shl.b64        %rd8, %rd7, 2;
    ld.param.u64   %rd9, [comp_key];
    add.u64        %rd10, %rd9, %rd8;
    atom.min.global.u32 %r8, [%rd10], %r6; // min over the component (N)
EXIT:
    exit;
}

.entry mst_hook (
    .param .u64 comp,
    .param .u64 best_key,
    .param .u64 best_dst,
    .param .u64 comp_key,
    .param .u64 succ,
    .param .u64 changed,
    .param .u32 num_nodes
)
{
    // the node whose candidate won its component's reduction hooks the
    // component onto the destination component (succ was reset to the
    // identity by the host before this launch)
    .reg .u32 %r<16>;
    mov.u32        %r1, %ctaid.x;
    mov.u32        %r2, %ntid.x;
    mov.u32        %r3, %tid.x;
    mad.lo.u32     %r4, %r1, %r2, %r3;     // v
    ld.param.u32   %r5, [num_nodes];
    setp.ge.u32    %p1, %r4, %r5;
    @%p1 bra       DEFAULT;
    ld.param.u64   %rd1, [comp];
    cvt.u64.u32    %rd2, %r4;
    shl.b64        %rd3, %rd2, 2;
    add.u64        %rd4, %rd1, %rd3;
    ld.global.u32  %r6, [%rd4];            // c = comp[v]   (deterministic)
    ld.param.u64   %rd5, [succ];
    ld.param.u64   %rd7, [best_key];
    add.u64        %rd8, %rd7, %rd3;
    ld.global.u32  %r7, [%rd8];            // key[v]        (deterministic)
    setp.eq.u32    %p2, %r7, 0xFFFFFFFF;
    @%p2 bra       DEFAULT;
    ld.param.u64   %rd9, [comp_key];
    cvt.u64.u32    %rd10, %r6;
    shl.b64        %rd11, %rd10, 2;
    add.u64        %rd12, %rd9, %rd11;
    ld.global.u32  %r8, [%rd12];           // winning key   (NON-deterministic)
    setp.ne.u32    %p3, %r7, %r8;
    @%p3 bra       DEFAULT;
    // this node won: only the root's succ entry is rewritten; resolve
    // ties (two nodes with equal key) benignly — same destination
    ld.param.u64   %rd13, [best_dst];
    add.u64        %rd14, %rd13, %rd3;
    ld.global.u32  %r9, [%rd14];           // destination comp (deterministic)
    add.u64        %rd15, %rd5, %rd11;     // succ[c]
    st.global.u32  [%rd15], %r9;
    ld.param.u64   %rd16, [changed];
    st.global.u32  [%rd16], 1;
DEFAULT:
    exit;
}

.entry mst_pointer_jump (
    .param .u64 succ,
    .param .u64 comp,
    .param .u64 changed,
    .param .u32 num_nodes
)
{
    // comp[v] = succ[succ[comp[v]]] collapse step (doubly indirect loads)
    .reg .u32 %r<16>;
    mov.u32        %r1, %ctaid.x;
    mov.u32        %r2, %ntid.x;
    mov.u32        %r3, %tid.x;
    mad.lo.u32     %r4, %r1, %r2, %r3;     // v
    ld.param.u32   %r5, [num_nodes];
    setp.ge.u32    %p1, %r4, %r5;
    @%p1 bra       EXIT;
    ld.param.u64   %rd1, [comp];
    cvt.u64.u32    %rd2, %r4;
    shl.b64        %rd3, %rd2, 2;
    add.u64        %rd4, %rd1, %rd3;
    ld.global.u32  %r6, [%rd4];            // c = comp[v]   (deterministic)
    ld.param.u64   %rd5, [succ];
    cvt.u64.u32    %rd6, %r6;
    shl.b64        %rd7, %rd6, 2;
    add.u64        %rd8, %rd5, %rd7;
    ld.global.u32  %r7, [%rd8];            // s = succ[c]   (NON-deterministic)
    cvt.u64.u32    %rd9, %r7;
    shl.b64        %rd10, %rd9, 2;
    add.u64        %rd11, %rd5, %rd10;
    ld.global.u32  %r8, [%rd11];           // ss = succ[s]  (NON-deterministic)
    // cycle break: the smaller endpoint of a 2-cycle becomes a root
    setp.ne.u32    %p2, %r8, %r6;
    @%p2 bra       APPLY;
    setp.ge.u32    %p3, %r6, %r7;
    @%p3 bra       APPLY;
    mov.u32        %r7, %r6;               // s = c (root)
APPLY:
    setp.eq.u32    %p4, %r7, %r6;
    @%p4 bra       STORE;
    ld.param.u64   %rd12, [changed];
    st.global.u32  [%rd12], 1;
STORE:
    st.global.u32  [%rd4], %r7;            // comp[v] = s
EXIT:
    exit;
}
"""


def reference_boruvka_round(row_ptr, col_idx, weights, comp, round_no=1):
    """Host mirror of one device round; returns the new comp array and
    whether anything merged (used for verification).  Raises
    :class:`ConvergenceError` when the collapse does not stabilize."""
    n = len(comp)
    best_key = np.full(n, NO_EDGE, dtype=np.uint64)
    best_dst = np.full(n, NO_EDGE, dtype=np.uint64)
    for v in range(n):
        for i in range(row_ptr[v], row_ptr[v + 1]):
            u = col_idx[i]
            if comp[u] == comp[v]:
                continue
            key = (int(weights[i]) << 12) | (int(u) & 4095)
            if key < best_key[v]:
                best_key[v] = key
                best_dst[v] = comp[u]
    comp_key = np.full(n, NO_EDGE, dtype=np.uint64)
    for v in range(n):
        if best_key[v] != NO_EDGE:
            c = comp[v]
            comp_key[c] = min(comp_key[c], best_key[v])
    succ = np.arange(n, dtype=comp.dtype)
    changed = False
    for v in range(n):
        if best_key[v] != NO_EDGE and best_key[v] == comp_key[comp[v]]:
            succ[comp[v]] = best_dst[v]
            changed = True
    # collapse with the same 2-cycle break rule until stable; a forest
    # collapses one succ step per pass, so n + 1 passes suffice, while a
    # longer succ cycle never stabilizes
    for _step in range(n + 1):
        s = succ[comp]
        ss = succ[s]
        two_cycle = (ss == comp) & (comp < s)
        s = np.where(two_cycle, comp, s)
        if np.array_equal(s, comp):
            break
        comp = s
    else:
        raise ConvergenceError("mst", round_no, n + 1)
    return comp, changed


class MST(Workload):
    """Boruvka-style minimum spanning forest rounds."""

    name = "mst"
    category = "graph"
    description = "minimum spanning tree (Boruvka rounds)"

    BLOCK = 128
    MAX_ROUNDS = 4

    def __init__(self, scale=1.0, seed=7):
        super().__init__(scale=scale, seed=seed)
        self.graph = None

    def ptx(self):
        return _PTX

    def setup(self, mem):
        self.graph = default_graph(self, base_nodes=1024)
        n = self.graph.num_nodes
        self.data_set = "R-MAT graph, %d nodes / %d edges, int weights" % (
            n, self.graph.num_edges)
        self.ptrs = alloc_graph(mem, self.graph, with_weights=True)
        comp = np.arange(n, dtype=np.uint32)
        self.ptrs["comp"] = mem.alloc_array("comp", comp)
        self.ptrs["best_key"] = mem.alloc("best_key", n * 4)
        self.ptrs["best_dst"] = mem.alloc("best_dst", n * 4)
        self.ptrs["comp_key"] = mem.alloc("comp_key", n * 4)
        self.ptrs["succ"] = mem.alloc("succ", n * 4)
        self.ptrs["changed"] = mem.alloc("changed", 4)
        self.rounds_run = 0

    def host(self, emu, module):
        n = self.graph.num_nodes
        grid = (max(1, -(-n // self.BLOCK)),)
        block = (self.BLOCK,)
        g = self.ptrs
        for round_no in range(1, self.MAX_ROUNDS + 1):
            emu.memory.write_array(
                "comp_key", np.full(n, NO_EDGE, dtype=np.uint32))
            emu.memory.write_array("succ", np.arange(n, dtype=np.uint32))
            emu.memory.store(g["changed"], _U32, 0)
            yield emu.launch(module["mst_find_min"], grid, block, params={
                "row_ptr": g["row_ptr"], "col_idx": g["col_idx"],
                "weights": g["weights"], "comp": g["comp"],
                "best_key": g["best_key"], "best_dst": g["best_dst"],
                "num_nodes": n})
            yield emu.launch(module["mst_reduce_comp"], grid, block, params={
                "comp": g["comp"], "best_key": g["best_key"],
                "best_dst": g["best_dst"], "comp_key": g["comp_key"],
                "comp_dst": g["best_dst"], "num_nodes": n})
            yield emu.launch(module["mst_hook"], grid, block, params={
                "comp": g["comp"], "best_key": g["best_key"],
                "best_dst": g["best_dst"], "comp_key": g["comp_key"],
                "succ": g["succ"], "changed": g["changed"],
                "num_nodes": n})
            if emu.memory.load(g["changed"], _U32) == 0:
                break
            self.rounds_run += 1
            # pointer jumping until the component map stabilizes, bounded
            # as in reference_boruvka_round
            for _step in range(n + 1):
                emu.memory.store(g["changed"], _U32, 0)
                yield emu.launch(module["mst_pointer_jump"], grid, block,
                                 params={"succ": g["succ"],
                                         "comp": g["comp"],
                                         "changed": g["changed"],
                                         "num_nodes": n})
                if emu.memory.load(g["changed"], _U32) == 0:
                    break
            else:
                raise ConvergenceError(self.name, round_no, n + 1)

    def verify(self, mem):
        n = self.graph.num_nodes
        comp = mem.read_array("comp", np.uint32, n).astype(np.int64)
        expected = np.arange(n, dtype=np.int64)
        for round_no in range(1, self.rounds_run + 1):
            expected, changed = reference_boruvka_round(
                self.graph.row_ptr, self.graph.col_idx,
                self.graph.weights, expected, round_no)
            if not changed:
                break
        # compare as partitions (representatives may differ)
        seen = {}
        for v in range(n):
            key = (int(comp[v]))
            if key in seen:
                if seen[key] != expected[v]:
                    raise AssertionError(
                        "mst: device component partition differs from the "
                        "host Boruvka reference")
            else:
                seen[key] = expected[v]
        if len(set(seen.values())) != len(seen):
            raise AssertionError("mst: device merged distinct reference "
                                 "components")
