"""Tests for max-flow / min-cut algorithms and s-t selection."""

import pytest

from repro.graphs.generators import (
    path_graph,
    random_connected_graph,
    two_cluster_graph,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.mincut.edmonds_karp import edmonds_karp
from repro.mincut.residual import ResidualNetwork
from repro.mincut.st_selection import maxflow_bisect, select_source_sink


def diamond() -> WeightedGraph:
    """s - (a|b) - t diamond with known max flow 5."""
    g = WeightedGraph()
    for n in "sabt":
        g.add_node(n)
    g.add_edge("s", "a", weight=3.0)
    g.add_edge("s", "b", weight=2.0)
    g.add_edge("a", "t", weight=2.0)
    g.add_edge("b", "t", weight=3.0)
    g.add_edge("a", "b", weight=1.0)
    return g


class TestResidual:
    def test_initial_capacities(self, triangle):
        network = ResidualNetwork(triangle)
        assert network.residual("a", "b") == 1.0
        assert network.residual("b", "a") == 1.0
        assert network.residual("a", "ghost") == 0.0

    def test_push_updates_both_directions(self, triangle):
        network = ResidualNetwork(triangle)
        network.push("a", "c", 2.0)
        assert network.residual("a", "c") == 1.0
        assert network.residual("c", "a") == 5.0
        assert network.flow_on("a", "c") == 2.0

    def test_overpush_rejected(self, triangle):
        network = ResidualNetwork(triangle)
        with pytest.raises(ValueError, match="cannot push"):
            network.push("a", "b", 5.0)

    def test_nonpositive_push_rejected(self, triangle):
        network = ResidualNetwork(triangle)
        with pytest.raises(ValueError):
            network.push("a", "b", 0.0)

    def test_reachability_after_saturation(self):
        g = path_graph(3, edge_weight=1.0)
        network = ResidualNetwork(g)
        network.push(0, 1, 1.0)
        assert network.reachable_from(0) == {0}


class TestEdmondsKarp:
    def test_diamond_flow_value(self):
        result = edmonds_karp(diamond(), "s", "t")
        assert result.value == pytest.approx(5.0)

    def test_path_bottleneck(self):
        g = WeightedGraph()
        for n in range(4):
            g.add_node(n)
        g.add_edge(0, 1, weight=5.0)
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(2, 3, weight=5.0)
        result = edmonds_karp(g, 0, 3)
        assert result.value == pytest.approx(1.0)
        assert result.source_side == {0, 1}

    def test_cut_certificate_matches_value(self):
        g = random_connected_graph(12, 25, seed=3)
        result = edmonds_karp(g, 0, 11)
        assert g.cut_weight(result.source_side) == pytest.approx(result.value)

    def test_duality_against_networkx(self):
        networkx = pytest.importorskip("networkx")
        for seed in range(4):
            g = random_connected_graph(10, 20, seed=seed)
            nxg = networkx.Graph()
            for u, v, w in g.edges():
                nxg.add_edge(u, v, capacity=w)
            expected, _ = networkx.minimum_cut(nxg, 0, 9)
            result = edmonds_karp(g, 0, 9)
            assert result.value == pytest.approx(expected)

    def test_two_clusters_min_cut_is_bridge(self):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.5)
        result = edmonds_karp(g, 0, 7)
        assert result.value == pytest.approx(1.5)
        assert result.source_side == {0, 1, 2, 3}

    def test_same_endpoints_rejected(self, triangle):
        with pytest.raises(ValueError):
            edmonds_karp(triangle, "a", "a")

    def test_missing_endpoint_rejected(self, triangle):
        with pytest.raises(KeyError):
            edmonds_karp(triangle, "a", "ghost")

    def test_sides_partition(self):
        g = random_connected_graph(9, 16, seed=5)
        result = edmonds_karp(g, 0, 8)
        assert result.source_side | result.sink_side == set(g.nodes())
        assert not result.source_side & result.sink_side


class TestStoerWagner:
    def test_global_leq_any_st_cut(self):
        networkx = pytest.importorskip("networkx")
        g = random_connected_graph(11, 20, seed=9)
        nxg = networkx.Graph()
        for u, v, w in g.edges():
            nxg.add_edge(u, v, weight=w)
        global_value, _ = networkx.stoer_wagner(nxg)
        st = edmonds_karp(g, 0, 10)
        assert global_value <= st.value + 1e-9


class TestSTSelection:
    def test_source_is_busiest(self, clusters):
        source, sink = select_source_sink(clusters)
        assert clusters.weighted_degree(source) == max(
            clusters.weighted_degree(n) for n in clusters.nodes()
        )
        assert source != sink

    def test_bisect_partitions(self):
        g = random_connected_graph(12, 22, seed=10)
        result = maxflow_bisect(g)
        assert result.part_one | result.part_two == set(g.nodes())
        assert result.cut_value == pytest.approx(g.cut_weight(result.part_one))

    def test_bisect_single_node(self):
        g = WeightedGraph()
        g.add_node("x")
        result = maxflow_bisect(g)
        assert result.part_one == {"x"}
        assert result.cut_value == 0.0

    def test_bisect_empty_rejected(self):
        with pytest.raises(ValueError):
            maxflow_bisect(WeightedGraph())

    def test_two_nodes_pair(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", weight=2.0)
        source, sink = select_source_sink(g)
        assert {source, sink} == {"a", "b"}
