"""Property-based tests: compression, cuts and scheme invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.compressor import CompressionConfig, GraphCompressor
from repro.compression.labels import AbsoluteThreshold
from repro.graphs.laplacian import laplacian_matrix
from repro.graphs.validation import check_graph_invariants
from repro.graphs.weighted_graph import WeightedGraph
from repro.mincut.edmonds_karp import edmonds_karp
from repro.partition.kernighan_lin import kernighan_lin_bisect
from repro.spectral.bisection import spectral_bisect
from tests.test_properties_graphs import weighted_graphs


@given(weighted_graphs(), st.floats(0.0, 25.0))
@settings(max_examples=50, deadline=None)
def test_compression_conserves_node_weight(graph, threshold):
    config = CompressionConfig(threshold_rule=AbsoluteThreshold(threshold))
    result = GraphCompressor(config).compress(graph)
    compressed = result.compressed
    assert np.isclose(
        compressed.graph.total_node_weight(), graph.total_node_weight()
    )
    check_graph_invariants(compressed.graph)


@given(weighted_graphs(), st.floats(0.0, 25.0))
@settings(max_examples=50, deadline=None)
def test_compression_clusters_partition_nodes(graph, threshold):
    config = CompressionConfig(threshold_rule=AbsoluteThreshold(threshold))
    compressed = GraphCompressor(config).compress(graph).compressed
    covered: set = set()
    for cluster in compressed.clusters:
        assert cluster, "empty cluster emitted"
        assert not covered & cluster, "clusters overlap"
        covered |= cluster
    assert covered == set(graph.nodes())


@given(weighted_graphs(), st.floats(0.0, 25.0))
@settings(max_examples=50, deadline=None)
def test_compression_only_merges_strong_connections(graph, threshold):
    """Nodes can only merge when joined by a path of edges heavier than
    the threshold (the label rule's guarantee)."""
    config = CompressionConfig(threshold_rule=AbsoluteThreshold(threshold))
    compressed = GraphCompressor(config).compress(graph).compressed
    # Build the strong-edge graph.
    strong = WeightedGraph()
    for node in graph.nodes():
        strong.add_node(node)
    for u, v, w in graph.edges():
        if w > threshold:
            strong.add_edge(u, v, weight=w)
    from repro.graphs.traversal import bfs_order

    for cluster in compressed.clusters:
        if len(cluster) == 1:
            continue
        first = next(iter(cluster))
        reachable = set(bfs_order(strong, first))
        assert cluster <= reachable, (
            f"cluster {cluster} not connected via strong edges"
        )


@given(weighted_graphs(), st.floats(0.0, 25.0))
@settings(max_examples=50, deadline=None)
def test_compressed_cut_realizable_in_original(graph, threshold):
    """Any cut of the compressed graph expands to a cut of the original
    graph with exactly the same weight (why cutting after compression is
    sound)."""
    config = CompressionConfig(threshold_rule=AbsoluteThreshold(threshold))
    compressed = GraphCompressor(config).compress(graph).compressed
    if compressed.graph.node_count < 2:
        return
    supers = compressed.graph.node_list()
    chosen = set(supers[: len(supers) // 2])
    compressed_cut = compressed.graph.cut_weight(chosen)
    original_cut = graph.cut_weight(compressed.expand(chosen))
    assert np.isclose(compressed_cut, original_cut)


@given(weighted_graphs(min_nodes=3))
@settings(max_examples=40, deadline=None)
def test_maxflow_min_cut_duality(graph):
    nodes = graph.node_list()
    source, sink = nodes[0], nodes[-1]
    result = edmonds_karp(graph, source, sink)
    assert np.isclose(result.value, graph.cut_weight(result.source_side))
    assert source in result.source_side
    assert sink in result.sink_side


@given(weighted_graphs(min_nodes=3))
@settings(max_examples=30, deadline=None)
def test_global_min_cut_leq_st_cut(graph):
    networkx = pytest.importorskip("networkx")
    from repro.graphs.components import is_connected

    if not is_connected(graph):
        return
    nodes = graph.node_list()
    st_result = edmonds_karp(graph, nodes[0], nodes[-1])
    nxg = networkx.Graph()
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    global_value, (side, _) = networkx.stoer_wagner(nxg)
    assert global_value <= st_result.value + 1e-9
    assert np.isclose(graph.cut_weight(set(side)), global_value)


@given(weighted_graphs(min_nodes=4))
@settings(max_examples=30, deadline=None)
def test_kl_respects_balance_and_reports_true_cut(graph):
    result = kernighan_lin_bisect(graph)
    assert abs(len(result.part_one) - len(result.part_two)) <= 1
    assert np.isclose(result.cut_value, graph.cut_weight(result.part_one))


@given(weighted_graphs(min_nodes=2))
@settings(max_examples=30, deadline=None)
def test_spectral_bisection_is_partition(graph):
    result = spectral_bisect(graph)
    assert result.part_one | result.part_two == set(graph.nodes())
    assert not result.part_one & result.part_two
    assert result.part_one  # never empty
    if graph.node_count >= 2:
        assert result.part_two
    assert np.isclose(result.cut_value, graph.cut_weight(result.part_one))


@given(weighted_graphs(min_nodes=2))
@settings(max_examples=25, deadline=None)
def test_fiedler_value_matches_numpy(graph):
    from repro.spectral.fiedler import FiedlerSolver

    lap = laplacian_matrix(graph)
    expected = float(np.linalg.eigvalsh(lap)[1])
    result = FiedlerSolver(method="dense").solve(graph)
    assert np.isclose(result.value, max(expected, 0.0), rtol=1e-8, atol=1e-8)
