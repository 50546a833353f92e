"""The graph apps' host references, checked against networkx.

``workloads.graph_common`` computes hop counts, shortest paths and
connected components over the CSR lists directly; networkx serves here
only as the oracle those references must agree with.  The last tests
make sure the references cannot pass vacuously and that running the
graph apps never imports networkx.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import get_workload
from repro.workloads.data import CSRGraph, rmat_graph
from repro.workloads.graph_common import (
    INF,
    reference_components,
    reference_hop_distance,
    reference_shortest_paths,
)

nx = pytest.importorskip("networkx")


def to_digraph(graph):
    """The CSR graph as a weighted networkx DiGraph, one node per id."""
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    for v in range(graph.num_nodes):
        lo, hi = graph.row_ptr[v], graph.row_ptr[v + 1]
        for j in range(lo, hi):
            g.add_edge(v, int(graph.col_idx[j]),
                       weight=int(graph.weights[j]))
    return g


def csr_from_edges(num_nodes, edges):
    """A CSRGraph from ``(src, dst, weight)`` triples (no duplicates)."""
    edges = sorted(edges)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    for src, _, _ in edges:
        row_ptr[src + 1] += 1
    return CSRGraph(
        num_nodes=num_nodes,
        row_ptr=np.cumsum(row_ptr).astype(np.int32),
        col_idx=np.array([d for _, d, _ in edges], dtype=np.int32),
        weights=np.array([w for _, _, w in edges], dtype=np.int32),
    )


def nx_hop_distance(graph, source):
    out = np.full(graph.num_nodes, -1, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(
            to_digraph(graph), source).items():
        out[v] = d
    return out


def nx_shortest_paths(graph, source):
    out = np.full(graph.num_nodes, INF, dtype=np.int64)
    for v, d in nx.single_source_dijkstra_path_length(
            to_digraph(graph), source).items():
        out[v] = d
    return out


def nx_components(graph):
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    for comp in nx.connected_components(to_digraph(graph).to_undirected()):
        labels[list(comp)] = min(comp)
    return labels


def assert_agrees(graph, sources):
    np.testing.assert_array_equal(reference_components(graph),
                                  nx_components(graph))
    for source in sources:
        np.testing.assert_array_equal(
            reference_hop_distance(graph, source),
            nx_hop_distance(graph, source))
        np.testing.assert_array_equal(
            reference_shortest_paths(graph, source),
            nx_shortest_paths(graph, source))


def test_digraph_matches_csr():
    g = rmat_graph(32, avg_degree=3)
    nxg = to_digraph(g)
    assert nxg.number_of_nodes() == 32
    assert nxg.number_of_edges() == g.num_edges
    for v in range(g.num_nodes):
        for j in range(g.row_ptr[v], g.row_ptr[v + 1]):
            assert nxg[v][int(g.col_idx[j])]["weight"] == g.weights[j]


@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "directed"])
@pytest.mark.parametrize("num_nodes", [128, 512])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_rmat_graphs_agree(num_nodes, seed, symmetric):
    g = rmat_graph(num_nodes, avg_degree=4, seed=seed, symmetric=symmetric)
    sources = np.random.default_rng(seed).choice(num_nodes, 3,
                                                 replace=False)
    assert_agrees(g, [0] + sources.tolist())


def test_isolated_and_unreachable_nodes():
    # 0 -> 1 -> 2 and 3 -> 0: node 3 is unreachable from 0 but in its
    # component; 4 and 6 are isolated; 5 <-> 7 is a separate component.
    g = csr_from_edges(8, [(0, 1, 5), (1, 2, 2), (3, 0, 1),
                           (5, 7, 3), (7, 5, 3)])
    assert reference_hop_distance(g, 0).tolist() == [
        0, 1, 2, -1, -1, -1, -1, -1]
    assert reference_shortest_paths(g, 0).tolist() == [
        0, 5, 7, INF, INF, INF, INF, INF]
    assert reference_components(g).tolist() == [0, 0, 0, 0, 4, 5, 6, 5]
    assert_agrees(g, range(8))


def test_source_without_out_edges():
    g = csr_from_edges(4, [(0, 2, 1), (1, 2, 1), (3, 2, 4)])
    assert reference_hop_distance(g, 2).tolist() == [-1, -1, 0, -1]
    assert reference_shortest_paths(g, 2).tolist() == [INF, INF, 0, INF]
    assert reference_components(g).tolist() == [0, 0, 0, 0]
    assert_agrees(g, range(4))


def test_dijkstra_takes_the_lighter_longer_path():
    g = csr_from_edges(4, [(0, 3, 50), (0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert reference_shortest_paths(g, 0).tolist() == [0, 1, 2, 3]
    assert reference_hop_distance(g, 0).tolist() == [0, 1, 2, 1]


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 100), max_size=3 * n),
    st.integers(0, n - 1))))
@settings(max_examples=60, deadline=None)
def test_random_graphs_agree(case):
    num_nodes, edges, source = case
    g = csr_from_edges(num_nodes, [(s, d, w) for (s, d), w in edges.items()
                                   if s != d])
    assert_agrees(g, [source])


# -- verification must catch one wrong value in device memory -----------


def _result_buffer(workload):
    if workload.name == "bfs":
        return "cost", np.uint32
    if workload.name == "sssp":
        return "dist", np.int32
    return workload.final_buffer, np.uint32


@pytest.fixture(scope="module")
def graph_runs():
    return {name: get_workload(name, scale=0.05).run()
            for name in ("bfs", "sssp", "ccl")}


@pytest.mark.parametrize("app", ["bfs", "sssp", "ccl"])
def test_verify_rejects_one_wrong_value(graph_runs, app):
    run = graph_runs[app]
    workload = run.workload
    name, dtype = _result_buffer(workload)
    n = workload.graph.num_nodes
    good = run.memory.read_array(name, dtype, n)
    workload.verify(run.memory)
    for node in (1, n // 2, n - 1):
        bad = good.copy()
        # a slice add wraps the -1/INF markers to a wrong value too
        bad[node:node + 1] += 1
        run.memory.write_array(name, bad)
        with pytest.raises(AssertionError, match=": 1/%d " % n):
            workload.verify(run.memory)
    run.memory.write_array(name, good)
    workload.verify(run.memory)


# -- the graph apps never import networkx ------------------------------------

_NO_NETWORKX = """
import sys
from repro.workloads import get_workload
for app in ("bfs", "sssp", "ccl"):
    get_workload(app, scale=0.05).run()
assert "networkx" not in sys.modules, "networkx was imported"
"""


def test_graph_apps_run_without_networkx():
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"),
               REPRO_TRACE_CACHE="0")
    proc = subprocess.run([sys.executable, "-c", _NO_NETWORKX], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
