"""Tests for the random graph models and every planner on each topology."""

import pytest

from repro.core import make_planner
from repro.graphs.components import largest_component
from repro.graphs.metrics import average_clustering, average_degree
from repro.graphs.random_models import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    watts_strogatz_graph,
)
from repro.graphs.validation import check_graph_invariants
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.system import MECSystem, UserContext
from repro.workloads.applications import call_graph_from_weighted_graph


class TestErdosRenyi:
    def test_shape_and_invariants(self):
        g = erdos_renyi_graph(50, 0.1, seed=1)
        assert g.node_count == 50
        check_graph_invariants(g)

    def test_edge_count_near_expectation(self):
        g = erdos_renyi_graph(80, 0.2, seed=2)
        expected = 0.2 * 80 * 79 / 2
        assert 0.6 * expected < g.edge_count < 1.4 * expected

    def test_extreme_probabilities(self):
        assert erdos_renyi_graph(10, 0.0, seed=3).edge_count == 0
        assert erdos_renyi_graph(10, 1.0, seed=3).edge_count == 45

    def test_seeded_determinism(self):
        a = erdos_renyi_graph(30, 0.15, seed=4)
        b = erdos_renyi_graph(30, 0.15, seed=4)
        assert a.edge_list() == b.edge_list()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(0, 0.5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, 1.5)


class TestBarabasiAlbert:
    def test_shape(self):
        g = barabasi_albert_graph(60, attachments=2, seed=5)
        assert g.node_count == 60
        check_graph_invariants(g)
        # m new edges per node beyond the seed clique (up to duplicates).
        assert g.edge_count >= 60 - 3

    def test_hub_formation(self):
        g = barabasi_albert_graph(200, attachments=2, seed=6)
        degrees = sorted((g.degree(n) for n in g.nodes()), reverse=True)
        # Scale-free: the top hub dwarfs the median degree.
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]

    def test_connected(self):
        g = barabasi_albert_graph(100, attachments=3, seed=7)
        assert len(largest_component(g)) == 100

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(1, 1)
        with pytest.raises(ValueError):
            barabasi_albert_graph(10, 10)


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        g = watts_strogatz_graph(20, ring_neighbors=4, rewire_probability=0.0, seed=8)
        assert g.edge_count == 20 * 2
        assert all(g.degree(n) == 4 for n in g.nodes())

    def test_high_clustering_at_low_rewiring(self):
        g = watts_strogatz_graph(100, ring_neighbors=6, rewire_probability=0.05, seed=9)
        assert average_clustering(g) > 0.3

    def test_rewiring_reduces_clustering(self):
        low = watts_strogatz_graph(100, 6, 0.0, seed=10)
        high = watts_strogatz_graph(100, 6, 1.0, seed=10)
        assert average_clustering(high) < average_clustering(low)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(2, 2)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, 3)  # odd neighbors
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, 4, rewire_probability=2.0)


class TestTopologyRobustness:
    """Every planner must produce feasible schemes on every topology."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: erdos_renyi_graph(60, 0.08, seed=11),
            lambda: barabasi_albert_graph(60, attachments=2, seed=11),
            lambda: watts_strogatz_graph(60, 4, 0.1, seed=11),
        ],
        ids=["erdos-renyi", "barabasi-albert", "watts-strogatz"],
    )
    @pytest.mark.parametrize("strategy", ["spectral", "maxflow", "kl", "sweep"])
    def test_pipeline_on_topology(self, build, strategy):
        graph = build()
        app = call_graph_from_weighted_graph(graph, unoffloadable_fraction=0.05, seed=1)
        system = MECSystem(EdgeServer(300.0), [UserContext(MobileDevice("u1"), app)])
        result = make_planner(strategy).plan_system(system, {"u1": app})
        from repro.mec.validation import validate_scheme

        assert validate_scheme(system, {"u1": app}, result.scheme).ok
        assert result.consumption.energy > 0.0

