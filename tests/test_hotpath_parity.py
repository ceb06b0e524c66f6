"""Parity tests for the hot-path optimisations.

The array-graph fast path (CSR Laplacians, the O(1) greedy move
evaluator, the batched candidate scan) and the process planning backend
are pure speed-ups: every test here pins the optimised path to the
original dict-walking semantics — bit-for-bit where the computation is
exact, within solver tolerance where an iterative eigensolver is
involved.  Label propagation has a single implementation; golden
digests pin its output instead.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgraph.model import FunctionCallGraph
from repro.compression.labels import (
    AbsoluteThreshold,
    MeanScaledThreshold,
    QuantileThreshold,
)
from repro.compression.propagation import LabelPropagation, TraversalPolicy
from repro.core import make_planner
from repro.fleet.fleet import EdgeFleet
from repro.fleet.routing import make_routing_policy
from repro.graphs import as_csr
from repro.graphs.generators import random_connected_graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.admission import EqualShareAllocation
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.greedy import PlacementEvaluator
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.service import (
    PlanningBackend,
    PlanService,
    ServiceConfig,
    plan_digest,
)
from repro.spectral.fiedler import FiedlerSolver

THRESHOLD_RULES = [
    MeanScaledThreshold(1.0),
    MeanScaledThreshold(0.5),
    QuantileThreshold(0.5),
    AbsoluteThreshold(3.0),
]


def _random_call_graph(seed: int, app_name: str = "parity") -> FunctionCallGraph:
    """Small random call graph with varied weights/components/flags."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    fcg = FunctionCallGraph(app_name)
    names = [f"f{i}" for i in range(n)]
    for name in names:
        fcg.add_function(
            name,
            computation=round(rng.uniform(1.0, 50.0), 3),
            component=rng.choice(["main", "aux"]),
            offloadable=rng.random() > 0.2,
        )
    for i in range(1, n):
        j = rng.randrange(i)
        fcg.add_data_flow(names[i], names[j], round(rng.uniform(0.5, 20.0), 3))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        if not fcg.graph.has_edge(u, v):
            fcg.add_data_flow(u, v, round(rng.uniform(0.5, 20.0), 3))
    return fcg


# ----------------------------------------------------------------------
# Label propagation: golden digests
# ----------------------------------------------------------------------
RANDOM_CASES = [
    (seed, policy, rule_index, n_nodes)
    for seed, (policy, rule_index, n_nodes) in enumerate(
        itertools.product(TraversalPolicy, range(len(THRESHOLD_RULES)), (8, 33, 60))
    )
]
"""``(seed, policy, rule index, node count)`` for each random graph."""

RANDOM_DIGESTS = [
    "c58d10f4e822744a", "ebd8eae52af709c3", "cec5db1520d1d1cc", "11ed9b259fc5348a",
    "ca05f05e8c7308b9", "de341506e50632de", "07e72697be6043a2", "5c6d6be21ea3fc46",
    "aa070ae81e451605", "ae5884c21fa7c3c5", "c086b7b03123bdcb", "918726e991203640",
    "95d533ea7ce13d0d", "a1746e127bece04f", "fc43de9ab3b25d9d", "30889c220aefe92a",
    "1e73dcb9b9d30c39", "d5add6ba43377c09", "1f76cbbf4be8c498", "5671f8f952101a03",
    "0997a56a8940312b", "c3e823ad5225cfdb", "42bdffbb35273149", "93fc00a31977c5fb",
]
DISCONNECTED_DIGESTS = [
    "856e840f985a63fd", "d56697b1c4894bff", "f65254b80fde998f",
    "7207e92292969a0f", "a2b0aa9ca3fc3857", "553927fa90668d10",
]
LARGE_DIGEST = "bf545137ccc0dd49"
"""Digests of every :class:`PropagationReport` field, recorded when four
bit-identical kernels (dict walk, CSR with dirty frontier, numpy
segments, and the size-switched ``auto``) all produced them."""


def _report_digest(report) -> str:
    canonical = (
        sorted(report.labels.items()),
        report.rounds,
        report.updates_per_round,
        float(report.threshold).hex(),
        report.starter,
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _disconnected_graph(seed: int) -> WeightedGraph:
    graph = WeightedGraph()
    for component, offset in ((random_connected_graph(10, 14, seed=seed), 0),
                              (random_connected_graph(7, 9, seed=seed + 50), 100)):
        for node in component.node_list():
            graph.add_node(node + offset, weight=component.node_weight(node))
        for u, v, weight in component.edges():
            graph.add_edge(u + offset, v + offset, weight)
    return graph


class TestLabelPropagationGolden:
    def test_random_graphs_match_golden_digests(self):
        mismatched = []
        for case, expected in zip(RANDOM_CASES, RANDOM_DIGESTS, strict=True):
            seed, policy, rule_index, n_nodes = case
            n_edges = min(2 * n_nodes, n_nodes * (n_nodes - 1) // 2)
            graph = random_connected_graph(n_nodes, n_edges, seed=seed)
            report = LabelPropagation(THRESHOLD_RULES[rule_index], policy=policy).run(graph)
            if _report_digest(report) != expected:
                mismatched.append(case)
        assert mismatched == []

    def test_disconnected_graphs_match_golden_digests(self):
        digests = [
            _report_digest(LabelPropagation(MeanScaledThreshold(1.0)).run(_disconnected_graph(seed)))
            for seed in range(len(DISCONNECTED_DIGESTS))
        ]
        assert digests == DISCONNECTED_DIGESTS

    def test_large_graph_matches_golden_digest(self):
        # 120 nodes: above the size where ``auto`` used to switch to CSR.
        graph = random_connected_graph(120, 260, seed=1)
        report = LabelPropagation(MeanScaledThreshold(1.0)).run(graph)
        assert _report_digest(report) == LARGE_DIGEST


# ----------------------------------------------------------------------
# Fiedler: dict-graph vs CSR-graph input, entry()
# ----------------------------------------------------------------------
class TestFiedlerParity:
    def test_dense_solve_bit_identical_for_csr_input(self):
        for seed in range(4):
            graph = random_connected_graph(40, 80, seed=seed)
            solver = FiedlerSolver(method="dense")
            from_dict = solver.solve(graph)
            from_csr = solver.solve(as_csr(graph))
            assert from_dict.order == from_csr.order
            assert from_dict.value == from_csr.value
            assert np.array_equal(from_dict.vector, from_csr.vector)

    def test_sparse_sign_pattern_matches_for_csr_input(self):
        graph = random_connected_graph(80, 200, seed=2)
        solver = FiedlerSolver(method="sparse")
        from_dict = solver.solve(graph)
        from_csr = solver.solve(as_csr(graph))
        assert abs(from_dict.value - from_csr.value) <= 1e-9 * max(1.0, abs(from_dict.value))
        # The Fiedler bipartition (sign pattern, up to a global flip) is
        # what the cut consumes; it must not depend on the input layout.
        signs_dict = np.sign(from_dict.vector)
        signs_csr = np.sign(from_csr.vector)
        assert np.array_equal(signs_dict, signs_csr) or np.array_equal(signs_dict, -signs_csr)

    def test_entry_matches_order_position(self):
        graph = random_connected_graph(30, 60, seed=5)
        result = FiedlerSolver(method="dense").solve(graph)
        for node in result.order:
            assert result.entry(node) == float(result.vector[result.order.index(node)])


# ----------------------------------------------------------------------
# Greedy: O(1) incremental evaluator vs from-scratch dict aggregates
# ----------------------------------------------------------------------
@st.composite
def partitioned_app(draw, user_id: str = "u1"):
    """A random call graph pre-sliced into parts, with grid-valued
    weights (multiples of 0.5) so equal objectives are exactly equal."""
    grid = st.integers(1, 60).map(lambda k: k * 0.5)
    n_parts = draw(st.integers(2, 5))
    fcg = FunctionCallGraph("parity")
    fcg.add_function("pin", computation=draw(grid), offloadable=False)
    part_sets: list[set[str]] = []
    fn_index = 0
    for p in range(n_parts):
        members: set[str] = set()
        for _ in range(draw(st.integers(1, 3))):
            name = f"f{fn_index}"
            fn_index += 1
            fcg.add_function(name, computation=draw(grid))
            members.add(name)
        part_sets.append(members)
    for p, members in enumerate(part_sets):
        first = sorted(members)[0]
        if draw(st.booleans()):
            fcg.add_data_flow("pin", first, draw(grid))
        if p > 0:
            fcg.add_data_flow(sorted(part_sets[p - 1])[0], first, draw(grid))
    return PartitionedApplication(user_id, fcg, part_sets)


class TestGreedyEvaluatorParity:
    @given(app=partitioned_app(), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_incremental_moves_match_scratch_rebuild(self, app, seed):
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
            ),
        )
        system = MECSystem(EdgeServer(total_capacity=200.0), [UserContext(device, app.call_graph)])
        weights = ObjectiveWeights()
        apps = {"u1": app}
        all_ids = {part.part_id for part in app.parts}
        evaluator = PlacementEvaluator(system, apps, {"u1": set(all_ids)}, weights)

        def scratch(remote: dict[str, set[int]]) -> float:
            # A fresh evaluator derives its aggregates from the app's
            # dict-walking local/remote/cut-weight methods — the original
            # per-candidate computation the array path replaced.
            return PlacementEvaluator(system, apps, remote, weights).combined()

        rng = random.Random(seed)
        while evaluator.remote["u1"]:
            for user_id, part_id in evaluator.candidates():
                moved = {u: set(parts) for u, parts in evaluator.remote.items()}
                moved[user_id].discard(part_id)
                predicted = evaluator.evaluate_move(user_id, part_id)
                expected = scratch(moved)
                assert abs(predicted - expected) <= 1e-9 * max(1.0, abs(expected))
            evaluator.apply_move("u1", rng.choice(sorted(evaluator.remote["u1"])))
            expected = scratch(evaluator.remote)
            assert abs(evaluator.combined() - expected) <= 1e-9 * max(1.0, abs(expected))


# ----------------------------------------------------------------------
# Greedy: vectorised candidate scan vs per-candidate scalar evaluation
# ----------------------------------------------------------------------
class TestGreedyKernelParity:
    def _evaluator(self, app) -> PlacementEvaluator:
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
            ),
        )
        system = MECSystem(EdgeServer(total_capacity=200.0), [UserContext(device, app.call_graph)])
        all_ids = {part.part_id for part in app.parts}
        return PlacementEvaluator(system, {"u1": app}, {"u1": set(all_ids)}, ObjectiveWeights())

    @given(app=partitioned_app(), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_evaluate_moves_matches_scalar_exactly(self, app, seed):
        # The vectorised scan must be bit-identical to the scalar loop —
        # the greedy argmin ties on exact float equality, so "close" is
        # not good enough.  Candidates are shuffled to exercise the
        # per-user grouping logic against arbitrary orderings.
        evaluator = self._evaluator(app)
        rng = random.Random(seed)
        while evaluator.remote["u1"]:
            candidates = list(evaluator.candidates())
            rng.shuffle(candidates)
            batch = evaluator.evaluate_moves(candidates)
            scalar = [evaluator.evaluate_move(user, part) for user, part in candidates]
            assert batch == scalar
            evaluator.apply_move("u1", rng.choice(sorted(evaluator.remote["u1"])))

    @given(app=partitioned_app())
    @settings(max_examples=10, deadline=None)
    def test_evaluate_moves_non_fcfs_fallback_matches_scalar(self, app):
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
            ),
        )
        system = MECSystem(
            EdgeServer(total_capacity=200.0),
            [UserContext(device, app.call_graph)],
            allocation=EqualShareAllocation(),
        )
        all_ids = {part.part_id for part in app.parts}
        evaluator = PlacementEvaluator(
            system, {"u1": app}, {"u1": set(all_ids)}, ObjectiveWeights()
        )
        candidates = list(evaluator.candidates())
        batch = evaluator.evaluate_moves(candidates)
        scalar = [evaluator.evaluate_move(user, part) for user, part in candidates]
        assert batch == scalar


# ----------------------------------------------------------------------
# Service and fleet: process backend vs thread/sequential baselines
# ----------------------------------------------------------------------
class TestExecutorParity:
    def test_plan_service_digests_identical_across_executors(self):
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(6)]
        digests: dict[str, list[str]] = {}
        for executor in ("thread", "process"):
            config = ServiceConfig(workers=2, executor=executor)
            with PlanService(make_planner("spectral"), config) as service:
                responses = [service.plan(graph) for graph in graphs]
            assert all(response.ok for response in responses)
            digests[executor] = [plan_digest(response.plan) for response in responses]
        assert digests["thread"] == digests["process"]

    def test_admit_many_with_process_backend_matches_sequential_admits(self):
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(4)]
        arrivals = [(MobileDevice(f"u{i}"), graphs[i % len(graphs)]) for i in range(12)]

        def build_fleet(backend=None) -> EdgeFleet:
            return EdgeFleet(
                3,
                100.0,
                strategy="spectral",
                routing=make_routing_policy("round-robin", seed=0),
                backend=backend,
            )

        sequential_fleet = build_fleet()
        sequential = [sequential_fleet.admit(device, graph) for device, graph in arrivals]

        backend = PlanningBackend(executor="process", strategy_name="spectral")
        try:
            backend.start()
            batch_fleet = build_fleet(backend=backend)
            batched = batch_fleet.admit_many(arrivals)
        finally:
            backend.close()

        outcome = lambda a: (a.user_id, a.server_id, a.cache_hit, a.degraded)
        assert [outcome(a) for a in sequential] == [outcome(a) for a in batched]
        assert (
            sequential_fleet.total_consumption().combined()
            == batch_fleet.total_consumption().combined()
        )
