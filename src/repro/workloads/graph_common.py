"""Shared host-side helpers for the graph workloads.

All five graph applications (bfs, sssp, ccl, mst, mis) consume the same
CSR adjacency layout produced by :func:`repro.workloads.data.rmat_graph`;
this module centralizes device allocation and the host reference
algorithms the graph workloads verify against.
"""

from __future__ import annotations

import heapq

import numpy as np

from .data import rmat_graph

#: "infinite" distance marker for sssp (fits comfortably in i32).
INF = 1 << 30


def alloc_graph(mem, graph, with_weights=False):
    """Allocate the CSR arrays on the device; returns a pointer dict."""
    ptrs = {
        "row_ptr": mem.alloc_array("row_ptr", graph.row_ptr),
        "col_idx": mem.alloc_array("col_idx", graph.col_idx),
    }
    if with_weights:
        ptrs["weights"] = mem.alloc_array("weights", graph.weights)
    return ptrs


def default_graph(workload, base_nodes=2048, avg_degree=8):
    """Build the workload's input graph at its configured scale."""
    num_nodes = workload.dim(base_nodes, minimum=128, multiple=128)
    return rmat_graph(num_nodes, avg_degree=avg_degree,
                      seed=workload.seed, symmetric=True)


def reference_components(graph):
    """Per-node component label = smallest node id in the component.

    Components follow edges in both directions.  Union-find keeps the
    smaller root on every union, so each root is its set's minimum.
    """
    row_ptr = graph.row_ptr.tolist()
    col_idx = graph.col_idx.tolist()
    parent = list(range(graph.num_nodes))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in range(graph.num_nodes):
        for u in col_idx[row_ptr[v]:row_ptr[v + 1]]:
            a, b = find(v), find(u)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    return np.array([find(v) for v in range(graph.num_nodes)],
                    dtype=np.int64)


def reference_hop_distance(graph, source):
    """BFS hop counts from ``source``; unreachable nodes get -1."""
    row_ptr = graph.row_ptr.tolist()
    col_idx = graph.col_idx.tolist()
    dist = [-1] * graph.num_nodes
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for v in frontier:
            for u in col_idx[row_ptr[v]:row_ptr[v + 1]]:
                if dist[u] < 0:
                    dist[u] = level
                    next_frontier.append(u)
        frontier = next_frontier
    return np.array(dist, dtype=np.int64)


def reference_shortest_paths(graph, source):
    """Weighted shortest-path distances; unreachable nodes get INF.

    Dijkstra with a binary heap.  Path lengths stay below
    ``num_nodes * max_weight``, far under INF, so INF marks only the
    unreachable nodes.
    """
    row_ptr = graph.row_ptr.tolist()
    col_idx = graph.col_idx.tolist()
    weights = graph.weights.tolist()
    dist = [INF] * graph.num_nodes
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for j in range(row_ptr[v], row_ptr[v + 1]):
            u = col_idx[j]
            nd = d + weights[j]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return np.array(dist, dtype=np.int64)
