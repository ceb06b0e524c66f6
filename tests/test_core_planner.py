"""Tests for the planner pipeline and the baseline strategies."""

import pytest

import repro.core.planner as planner_module
import repro.service.fingerprint as fingerprint_module
from repro.compression.compressor import CompressionConfig
from repro.compression.labels import AbsoluteThreshold
from repro.core.baselines import (
    kl_cut_strategy,
    make_planner,
    maxflow_cut_strategy,
    spectral_cut_strategy,
)
from repro.core.config import PlannerConfig
from repro.core.planner import OffloadingPlanner
from repro.distributed.cluster import LocalCluster
from repro.graphs.generators import two_cluster_graph
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.workloads.applications import (
    call_graph_from_weighted_graph,
    synthesize_application,
)
from repro.workloads.netgen import NetgenConfig, netgen_graph
from repro.workloads.traces import call_graph_from_dict, call_graph_to_dict

ALL_STRATEGIES = ("spectral", "maxflow", "kl")


class TestCutStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [spectral_cut_strategy(), maxflow_cut_strategy(), kl_cut_strategy()],
        ids=["spectral", "maxflow", "kl"],
    )
    def test_strategies_bisect(self, strategy):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.0)
        outcome = strategy(g)
        assert outcome.part_one | outcome.part_two == set(g.nodes())
        assert not outcome.part_one & outcome.part_two
        assert outcome.cut_value == pytest.approx(g.cut_weight(outcome.part_one))

    def test_spectral_and_kl_find_bridge(self):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.0)
        for strategy in (spectral_cut_strategy(), kl_cut_strategy()):
            assert strategy(g).cut_value == pytest.approx(1.0)

    def test_make_planner_names(self):
        for name in ALL_STRATEGIES:
            assert make_planner(name).strategy_name == name

    def test_make_planner_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_planner("quantum")

    def test_spark_planner_needs_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            make_planner("spectral-spark")
        with LocalCluster(workers=1) as cluster:
            planner = make_planner("spectral-spark", cluster=cluster)
            assert planner.strategy_name == "spectral-spark"


class TestPlanUser:
    def test_plan_structure(self):
        app = synthesize_application("demo", n_functions=40, seed=1)
        plan = make_planner("spectral").plan_user(app)
        assert plan.original_nodes == len(app.offloadable_functions())
        assert plan.compressed_nodes <= plan.original_nodes
        # Parts cover exactly the offloadable functions.
        covered = set().union(*plan.parts) if plan.parts else set()
        assert covered == set(app.offloadable_functions())

    def test_parts_disjoint(self):
        app = synthesize_application("demo", n_functions=60, seed=2)
        plan = make_planner("spectral").plan_user(app)
        seen: set[str] = set()
        for part in plan.parts:
            assert not seen & part
            seen |= part

    def test_bisections_reference_valid_parts(self):
        app = synthesize_application("demo", n_functions=50, seed=3)
        plan = make_planner("maxflow").plan_user(app)
        for side_one, side_two in plan.bisections:
            for index in side_one | side_two:
                assert 0 <= index < len(plan.parts)

    def test_compression_ratio_reported(self):
        g = netgen_graph(NetgenConfig(n_nodes=120, n_edges=520, seed=4))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=4)
        plan = make_planner("spectral").plan_user(app)
        assert plan.compression_ratio > 2.0  # netgen graphs compress well
        assert plan.propagation_rounds >= 1

    def test_skip_compression_ablation(self):
        g = netgen_graph(NetgenConfig(n_nodes=60, n_edges=250, seed=5))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=5)
        config = PlannerConfig(skip_compression=True)
        plan = OffloadingPlanner(
            spectral_cut_strategy(), config=config, strategy_name="raw"
        ).plan_user(app)
        assert plan.compressed_nodes == plan.original_nodes
        assert plan.compression_ratio == pytest.approx(1.0)

    def test_all_unoffloadable_app(self):
        from repro.callgraph.model import FunctionCallGraph

        fcg = FunctionCallGraph("pinned")
        fcg.add_function("a", 5.0, offloadable=False)
        fcg.add_function("b", 5.0, offloadable=False)
        fcg.add_data_flow("a", "b", 2.0)
        plan = make_planner("spectral").plan_user(fcg)
        assert plan.parts == []
        assert plan.bisections == []

    def test_refine_cuts_never_worse(self):
        g = netgen_graph(NetgenConfig(n_nodes=100, n_edges=430, seed=6))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=6)
        base = OffloadingPlanner(kl_cut_strategy(), strategy_name="kl").plan_user(app)
        refined = OffloadingPlanner(
            kl_cut_strategy(),
            config=PlannerConfig(refine_cuts=True),
            strategy_name="kl+fm",
        ).plan_user(app)
        assert refined.total_cut_value <= base.total_cut_value + 1e-9


class TestPlanSystem:
    def make_system(self, app, n_users: int = 1):
        users = [
            UserContext(MobileDevice(f"u{k}"), app) for k in range(n_users)
        ]
        system = MECSystem(EdgeServer(total_capacity=300.0 * n_users), users)
        return system, {f"u{k}": app for k in range(n_users)}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_scheme_is_feasible(self, strategy):
        app = synthesize_application("demo", n_functions=50, seed=7)
        system, graphs = self.make_system(app)
        result = make_planner(strategy).plan_system(system, graphs)
        pinned = set(app.unoffloadable_functions())
        for user_id in graphs:
            assert not result.scheme.remote_for(user_id) & pinned

    def test_identical_apps_planned_once(self):
        app = synthesize_application("demo", n_functions=40, seed=8)
        system, graphs = self.make_system(app, n_users=5)
        result = make_planner("spectral").plan_system(system, graphs)
        plans = list(result.user_plans.values())
        assert all(p is plans[0] for p in plans)

    def test_missing_call_graph_rejected(self):
        app = synthesize_application("demo", n_functions=20, seed=9)
        system, _ = self.make_system(app)
        with pytest.raises(KeyError, match="no call graph"):
            make_planner("spectral").plan_system(system, {})

    def test_consumption_matches_reevaluation(self):
        app = synthesize_application("demo", n_functions=45, seed=10)
        system, graphs = self.make_system(app, n_users=2)
        result = make_planner("spectral").plan_system(system, graphs)
        # The reported totals must be non-negative and self-consistent.
        c = result.consumption
        assert c.energy == pytest.approx(c.local_energy + c.transmission_energy)
        assert c.time >= 0.0
        assert result.planning_seconds > 0.0

    def test_summary_mentions_strategy(self):
        app = synthesize_application("demo", n_functions=30, seed=11)
        system, graphs = self.make_system(app)
        result = make_planner("kl").plan_system(system, graphs)
        assert "[kl]" in result.summary()

    def test_custom_compression_config_used(self):
        app = synthesize_application("demo", n_functions=40, seed=12)
        aggressive = PlannerConfig(
            compression=CompressionConfig(threshold_rule=AbsoluteThreshold(0.0))
        )
        plan = OffloadingPlanner(
            spectral_cut_strategy(), config=aggressive, strategy_name="s"
        ).plan_user(app)
        # Threshold 0 merges each connected component into one super node.
        assert plan.compressed_nodes <= len(app.components()) + 1


def _reference_plan(planner, system, graphs):
    """The per-user reference for ``plan_system``: every user is planned
    and laid out on its own, sharing nothing."""
    apps = {}
    bisections = {}
    for user in system.users:
        graph = graphs[user.user_id]
        plan = planner.plan_user(graph)
        apps[user.user_id] = PartitionedApplication(user.user_id, graph, plan.parts)
        bisections[user.user_id] = plan.bisections
    return generate_offloading_scheme(
        system,
        apps,
        bisections,
        weights=planner.config.objective,
        placement_mode=planner.config.initial_placement_mode,
    )


def _capture_apps(monkeypatch):
    """Record the applications ``plan_system`` hands to the greedy."""
    captured = {}
    inner = planner_module.generate_offloading_scheme

    def recording(system, apps, *args, **kwargs):
        captured.update(apps)
        return inner(system, apps, *args, **kwargs)

    monkeypatch.setattr(planner_module, "generate_offloading_scheme", recording)
    return captured


class TestPlanSystemPerDistinctApp:
    """Per-app work runs once per distinct graph, O(1) per further user."""

    @staticmethod
    def make_system(graph_of_user):
        users = [UserContext(MobileDevice(uid), g) for uid, g in graph_of_user.items()]
        system = MECSystem(EdgeServer(total_capacity=150.0 * len(users)), users)
        return system, dict(graph_of_user)

    @staticmethod
    def mixed_graphs(n_users=12):
        pool = [synthesize_application(f"app{k}", n_functions=35, seed=20 + k) for k in range(3)]
        return {f"u{k:02d}": pool[k % 3] for k in range(n_users)}

    def test_one_fingerprint_per_graph_object(self, monkeypatch):
        calls = []
        inner = fingerprint_module.request_fingerprint

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(fingerprint_module, "request_fingerprint", counting)
        system, graphs = self.make_system(self.mixed_graphs(12))
        make_planner("spectral").plan_system(system, graphs)
        assert len(calls) == 3

    def test_content_equal_objects_share_one_plan_but_keep_their_graphs(self, monkeypatch):
        app = synthesize_application("shared", n_functions=40, seed=5)
        twin = call_graph_from_dict(call_graph_to_dict(app))
        assert twin is not app
        system, graphs = self.make_system({"a": app, "b": twin, "c": app})
        planner = make_planner("spectral")
        calls = []
        inner = planner.plan_user
        planner.plan_user = lambda graph: calls.append(graph) or inner(graph)
        apps = _capture_apps(monkeypatch)

        result = planner.plan_system(system, graphs)

        assert len(calls) == 1
        assert result.user_plans["a"] is result.user_plans["b"] is result.user_plans["c"]
        for user_id, graph in graphs.items():
            assert apps[user_id].user_id == user_id
            assert apps[user_id].call_graph is graph
            assert all(part.user_id == user_id for part in apps[user_id].parts)
            assert [part.key for part in apps[user_id].parts] == [
                (user_id, index) for index in range(apps[user_id].part_count)
            ]

    def test_shared_layouts_match_per_user_layouts(self, monkeypatch):
        graphs = self.mixed_graphs(9)
        graphs["u01"] = call_graph_from_dict(call_graph_to_dict(graphs["u01"]))
        system, graphs = self.make_system(graphs)
        planner = make_planner("spectral")
        apps = _capture_apps(monkeypatch)

        result = planner.plan_system(system, graphs)
        reference = _reference_plan(planner, system, graphs)

        assert result.scheme.remote_functions == reference.scheme.remote_functions
        assert result.consumption == reference.consumption
        assert result.greedy.moves == reference.moves
        assert result.greedy.remote_parts == reference.remote_parts
        for user_id, app in apps.items():
            own = PartitionedApplication(user_id, graphs[user_id], result.user_plans[user_id].parts)
            assert app.inter_comm == own.inter_comm
            assert app.pinned_computation == own.pinned_computation
            assert app.parts == own.parts
            for part in app.parts:
                assert part.anchor_traffic == graphs[user_id].local_anchor_traffic(part.functions)

    def test_unfingerprintable_config_plans_each_user(self):
        class OpaqueRule:
            """Not a dataclass: has no canonical fingerprint encoding."""

            def threshold(self, graph):
                return 1.0

            def is_strong(self, graph, weight):
                return weight > 1.0

        config = PlannerConfig(compression=CompressionConfig(threshold_rule=OpaqueRule()))
        planner = OffloadingPlanner(spectral_cut_strategy(), config=config, strategy_name="opaque")
        system, graphs = self.make_system(self.mixed_graphs(6))
        calls = []
        inner = planner.plan_user
        planner.plan_user = lambda graph: calls.append(graph) or inner(graph)

        result = planner.plan_system(system, graphs)
        assert len(calls) == 6
        reference = _reference_plan(planner, system, graphs)
        assert result.scheme.remote_functions == reference.scheme.remote_functions
        assert result.consumption == reference.consumption

    def test_each_call_plans_from_scratch(self):
        app = synthesize_application("edited", n_functions=40, seed=6)
        system, graphs = self.make_system({"a": app, "b": app})
        planner = make_planner("spectral")
        before = planner.plan_system(system, graphs)
        heaviest = max(app.offloadable_functions(), key=app.graph.node_weight)
        app.graph.set_node_weight(heaviest, 1000.0 * app.graph.node_weight(heaviest))

        after = planner.plan_system(system, graphs)

        assert after.consumption == _reference_plan(planner, system, graphs).consumption
        assert after.consumption != before.consumption
