"""Tests for the plan-serving subsystem (repro.service).

Covers the acceptance contract of the serving layer: fingerprint
invariances, LRU/spill behaviour, single-flight dedup under real
threads, load shedding, structured validation errors, timeout/retry,
the serve-bench CLI smoke path, and the 200-request/8-app replay
criterion (hit rate >= 0.9, planner invocations <= 16, cached plans
byte-identical to cold plans).
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgraph.model import FunctionCallGraph
from repro.core import PlannerConfig, make_planner
from repro.core.planner import OffloadingPlanner
from repro.core.results import UserPlan
from repro.service import (
    FingerprintError,
    Histogram,
    PlanCache,
    PlanService,
    QueueFullError,
    RequestQueue,
    ServiceConfig,
    config_fingerprint,
    graph_fingerprint,
    plan_digest,
    plan_from_dict,
    plan_to_dict,
    request_fingerprint,
)
from repro.service.batching import PlanRequest
from repro.workloads import synthesize_application
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import (
    call_graph_from_dict,
    call_graph_to_dict,
    replay_arrivals,
)


def random_call_graph(seed: int, app_name: str = "prop") -> FunctionCallGraph:
    """Small random call graph with varied weights/components/flags."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
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


def rebuild(fcg: FunctionCallGraph, order_seed: int | None = None) -> FunctionCallGraph:
    """Reconstruct *fcg*, optionally shuffling the insertion order of
    functions and flows."""
    functions = [fcg.info(name) for name in fcg.functions()]
    flows = list(fcg.graph.edges())
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(functions)
        rng.shuffle(flows)
    clone = FunctionCallGraph(fcg.app_name)
    for info in functions:
        clone.add_function(
            info.name,
            computation=info.computation,
            component=info.component,
            offloadable=info.offloadable,
        )
    for u, v, w in flows:
        clone.add_data_flow(str(u), str(v), w)
    return clone


class TestFingerprint:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
    def test_content_fingerprint_invariant_under_reordering(self, seed, order_seed):
        original = random_call_graph(seed)
        reordered = rebuild(original, order_seed=order_seed)
        assert graph_fingerprint(original) == graph_fingerprint(reordered)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), which=st.integers(0, 2))
    def test_fingerprints_differ_on_any_mutation(self, seed, which):
        original = random_call_graph(seed)
        mutated = rebuild(original)
        names = list(mutated.functions())
        rng = random.Random(seed)
        if which == 0:  # perturb one node weight
            victim = rng.choice(names)
            mutated.graph.set_node_weight(victim, mutated.graph.node_weight(victim) + 1.0)
            info = mutated.info(victim)
            mutated._info[victim] = dataclasses.replace(
                info, computation=info.computation + 1.0
            )
        elif which == 1:  # perturb one edge weight
            u, v, w = rng.choice(mutated.graph.edge_list())
            mutated.graph.set_edge_weight(u, v, w + 1.0)
        else:  # flip one offloadability flag
            victim = rng.choice(names)
            info = mutated.info(victim)
            mutated._info[victim] = dataclasses.replace(
                info, offloadable=not info.offloadable
            )
        assert graph_fingerprint(original) != graph_fingerprint(mutated)

    def test_stable_across_trace_round_trip(self):
        app = synthesize_application("demo", n_functions=30, seed=3)
        copy = call_graph_from_dict(call_graph_to_dict(app))
        assert copy is not app
        assert graph_fingerprint(app) == graph_fingerprint(copy)

    def test_config_fingerprint_distinguishes_configs(self):
        base = PlannerConfig()
        refined = dataclasses.replace(base, refine_cuts=True)
        assert config_fingerprint(base) != config_fingerprint(refined)
        assert config_fingerprint(base) == config_fingerprint(PlannerConfig())

    def test_config_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(FingerprintError):
            config_fingerprint(object())

    def test_request_fingerprint_includes_strategy(self):
        app = random_call_graph(1)
        config = PlannerConfig()
        assert request_fingerprint(app, config, "spectral") != request_fingerprint(
            app, config, "kl"
        )


class TestPlannerContentCache:
    def test_plan_system_shares_plans_across_identical_objects(self, device_profile):
        from repro.mec.devices import EdgeServer, MobileDevice
        from repro.mec.system import MECSystem, UserContext

        app = synthesize_application("shared", n_functions=30, seed=7)
        twin = call_graph_from_dict(call_graph_to_dict(app))
        users = [
            UserContext(MobileDevice("u1", profile=device_profile), app),
            UserContext(MobileDevice("u2", profile=device_profile), twin),
        ]
        system = MECSystem(EdgeServer(400.0), users)
        planner = make_planner("spectral")
        calls = []
        inner = planner.plan_user
        planner.plan_user = lambda graph: calls.append(1) or inner(graph)
        result = planner.plan_system(system, {"u1": app, "u2": twin})
        assert len(calls) == 1
        assert result.user_plans["u1"] is result.user_plans["u2"]

    def test_plan_system_identity_fallback_for_opaque_config(self, device_profile):
        from repro.mec.devices import EdgeServer, MobileDevice
        from repro.mec.system import MECSystem, UserContext

        class OpaqueRule:
            """Not a dataclass: has no canonical fingerprint encoding."""

            def threshold(self, graph):
                return 0.0

            def is_strong(self, graph, weight):
                return weight > 0.0

        from repro.compression.compressor import CompressionConfig

        config = PlannerConfig(compression=CompressionConfig(threshold_rule=OpaqueRule()))
        planner = OffloadingPlanner(
            make_planner("spectral").cut_strategy, config=config, strategy_name="opaque"
        )
        app = synthesize_application("solo", n_functions=20, seed=9)
        system = MECSystem(
            EdgeServer(300.0), [UserContext(MobileDevice("u1", profile=device_profile), app)]
        )
        result = planner.plan_system(system, {"u1": app})
        assert "u1" in result.user_plans

    def test_plan_user_records_stage_timings(self):
        planner = make_planner("spectral")
        plan = planner.plan_user(synthesize_application("timed", n_functions=25, seed=2))
        assert set(plan.stage_seconds) == {"compress", "cut"}
        assert all(seconds >= 0.0 for seconds in plan.stage_seconds.values())

    def test_plan_system_records_greedy_timing(self, single_user_system):
        system, call_graphs = single_user_system
        result = make_planner("spectral").plan_system(system, call_graphs)
        assert result.user_plans["u1"].stage_seconds["greedy"] >= 0.0


def make_plan(name: str = "app", n_parts: int = 2) -> UserPlan:
    parts = [frozenset({f"{name}-f{i}", f"{name}-g{i}"}) for i in range(n_parts)]
    return UserPlan(
        app_name=name,
        parts=parts,
        bisections=[({0}, set(range(1, n_parts)))],
        compressed_nodes=n_parts,
        compressed_edges=n_parts - 1,
        original_nodes=2 * n_parts,
        original_edges=2 * n_parts - 1,
        cut_values=[1.5],
        propagation_rounds=2,
        stage_seconds={"compress": 0.1, "cut": 0.2},
    )


class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("a", make_plan("a"))
        cache.put("b", make_plan("b"))
        assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
        cache.put("c", make_plan("c"))
        stats = cache.stats()
        assert stats.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats().misses == 1

    def test_spill_round_trip(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache(capacity=8, spill_path=path)
        plans = {key: make_plan(key, n_parts=3) for key in ("x", "y", "z")}
        for key, plan in plans.items():
            cache.put(key, plan)
        cache.save()

        restored = PlanCache(capacity=8, spill_path=path)
        assert restored.load() == 3
        for key, plan in plans.items():
            loaded = restored.get(key)
            assert plan_to_dict(loaded) == plan_to_dict(plan)
            assert plan_digest(loaded) == plan_digest(plan)

    def test_load_missing_file_is_empty_start(self, tmp_path):
        cache = PlanCache(spill_path=tmp_path / "absent.json")
        assert cache.load() == 0

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            PlanCache(spill_path=path).load()

    def test_plan_serialization_round_trip(self):
        plan = make_plan("round", n_parts=4)
        assert plan_to_dict(plan_from_dict(plan_to_dict(plan))) == plan_to_dict(plan)

    def test_digest_ignores_timings(self):
        one, two = make_plan("same"), make_plan("same")
        two.stage_seconds = {"compress": 9.9, "cut": 0.0, "greedy": 1.0}
        assert plan_digest(one) == plan_digest(two)
        assert plan_to_dict(one) != plan_to_dict(two)


class TestRequestQueue:
    def test_single_flight_coalescing(self):
        queue = RequestQueue(max_depth=4)
        first, created_first = queue.submit(PlanRequest(graph=None, key="k"))
        second, created_second = queue.submit(PlanRequest(graph=None, key="k"))
        assert created_first and not created_second
        assert first is second
        assert queue.depth == 1 and queue.pending == 1

    def test_bounded_depth(self):
        queue = RequestQueue(max_depth=1)
        queue.submit(PlanRequest(graph=None, key="a"))
        with pytest.raises(QueueFullError):
            queue.submit(PlanRequest(graph=None, key="b"))
        # Coalescing onto the existing flight never sheds.
        _, created = queue.submit(PlanRequest(graph=None, key="a"))
        assert not created


def slow_planner(delay: float = 0.2) -> OffloadingPlanner:
    planner = make_planner("spectral")
    inner = planner.plan_user

    def slowed(graph):
        time.sleep(delay)
        return inner(graph)

    planner.plan_user = slowed
    return planner


class TestPlanService:
    def test_single_flight_many_threads_one_invocation(self):
        app = synthesize_application("hot", n_functions=25, seed=5)
        copies = [call_graph_from_dict(call_graph_to_dict(app)) for _ in range(8)]
        service = PlanService(slow_planner(0.15), ServiceConfig(workers=2))
        responses: list = [None] * len(copies)

        def hit(index: int) -> None:
            responses[index] = service.plan(copies[index])

        with service:
            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(len(copies))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service.planner_invocations == 1
            coalesced = service.metrics.counter("requests_coalesced").value
            hits = service.cache.stats().hits
            assert coalesced + hits == len(copies) - 1
        digests = {plan_digest(r.plan) for r in responses}
        assert all(r.ok for r in responses)
        assert len(digests) == 1

    def test_load_shedding_on_bounded_queue(self):
        apps = [synthesize_application(f"app{i}", n_functions=20, seed=i) for i in range(4)]
        config = ServiceConfig(workers=1, max_queue_depth=1, request_timeout=10.0)
        with PlanService(slow_planner(0.3), config) as service:
            tickets = [service.submit(app) for app in apps]
            responses = [ticket.result() for ticket in tickets]
            shed = [r for r in responses if r.error is not None and r.error.code == "shed"]
            served = [r for r in responses if r.ok]
            assert shed, "bounded queue must shed overflow requests"
            assert served, "the in-flight request must still be served"
            assert service.metrics.counter("requests_shed").value == len(shed)

    def test_invalid_graph_returns_structured_error_and_worker_survives(self):
        broken = FunctionCallGraph("broken")
        broken.add_function("a", computation=1.0)
        broken.add_function("b", computation=2.0)
        # Corrupt the adjacency directly: one-sided edge breaks symmetry.
        broken.graph._adjacency["a"]["b"] = 5.0

        healthy = synthesize_application("fine", n_functions=20, seed=1)
        with PlanService(make_planner("spectral")) as service:
            bad = service.plan(broken)
            assert not bad.ok
            assert bad.error.code == "invalid-graph"
            assert "asymmetric" in bad.error.message
            assert service.metrics.counter("requests_shed").value == 1
            assert service.metrics.counter("errors_invalid-graph").value == 1
            good = service.plan(healthy)
            assert good.ok, "worker thread must survive a rejected graph"

    def test_planner_crash_retried_once_then_succeeds(self):
        planner = make_planner("spectral")
        inner = planner.plan_user
        attempts = []

        def flaky(graph):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient solver failure")
            return inner(graph)

        planner.plan_user = flaky
        with PlanService(planner) as service:
            response = service.plan(synthesize_application("flaky", n_functions=20, seed=4))
            assert response.ok
            assert len(attempts) == 2
            assert service.metrics.counter("planner_retries").value == 1

    def test_planner_crash_exhausts_retries_to_internal_error(self):
        planner = make_planner("spectral")

        def always_broken(graph):
            raise RuntimeError("permanently broken")

        planner.plan_user = always_broken
        with PlanService(planner) as service:
            response = service.plan(synthesize_application("dead", n_functions=15, seed=6))
            assert not response.ok
            assert response.error.code == "internal"
            assert "permanently broken" in response.error.message

    def test_request_timeout_is_structured(self):
        with PlanService(slow_planner(1.0), ServiceConfig(workers=1)) as service:
            ticket = service.submit(synthesize_application("slow", n_functions=20, seed=8))
            response = ticket.result(timeout=0.02)
            assert not response.ok
            assert response.error.code == "timeout"
            assert service.metrics.counter("requests_timeout").value == 1

    def test_stage_histograms_count_plans_not_hits(self):
        app = synthesize_application("hits", n_functions=25, seed=12)
        with PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service:
            assert not service.plan(app).cached
            assert service.plan(call_graph_from_dict(call_graph_to_dict(app))).cached
            assert service.planner_invocations == 1
            for stage in ("compress", "cut"):
                assert service.metrics.histogram(f"stage_{stage}_seconds").count == 1

    def test_cache_spill_survives_restart(self, tmp_path):
        spill = tmp_path / "spill.json"
        app = synthesize_application("persist", n_functions=25, seed=11)
        config = ServiceConfig(workers=1, spill_path=str(spill))
        with PlanService(make_planner("spectral"), config) as service:
            first = service.plan(app)
            assert first.ok and service.planner_invocations == 1
        assert spill.exists()

        with PlanService(make_planner("spectral"), config) as reborn:
            second = reborn.plan(call_graph_from_dict(call_graph_to_dict(app)))
            assert second.ok and second.cached
            assert reborn.planner_invocations == 0
            assert plan_digest(second.plan) == plan_digest(first.plan)

    def test_submit_after_close_is_structured(self):
        service = PlanService(make_planner("spectral"))
        service.start()
        service.close()
        response = service.plan(synthesize_application("late", n_functions=10, seed=3))
        assert not response.ok
        assert response.error.code == "closed"


class TestOnlineAdmissionWithCachedPlans:
    def test_admit_accepts_precomputed_plan(self, device_profile):
        from repro.core.baselines import spectral_cut_strategy
        from repro.mec.devices import EdgeServer, MobileDevice
        from repro.mec.online import OnlinePlanner

        app = synthesize_application("online", n_functions=25, seed=13)
        with PlanService(make_planner("spectral")) as service:
            cached = service.plan(app).plan

        fresh = OnlinePlanner(EdgeServer(300.0), spectral_cut_strategy())
        with_plan = OnlinePlanner(EdgeServer(300.0), spectral_cut_strategy())
        baseline = fresh.admit(MobileDevice("u1", profile=device_profile), app)
        record = with_plan.admit(
            MobileDevice("u1", profile=device_profile), app, plan=cached
        )
        assert record.plan is cached
        assert record.consumption_after.energy == pytest.approx(
            baseline.consumption_after.energy
        )


class TestHistogramPercentiles:
    """Property tests for the nearest-rank percentile (direct coverage)."""

    finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)

    @given(st.lists(finite, min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_extreme_quantiles_are_window_min_and_max(self, values):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.percentile(0.0) == min(float(v) for v in values)
        assert hist.percentile(1.0) == max(float(v) for v in values)

    @given(finite, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_single_sample_dominates_every_quantile(self, value, q):
        hist = Histogram("h")
        hist.observe(value)
        assert hist.percentile(q) == float(value)

    @given(st.lists(finite, min_size=5, max_size=40), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_window_eviction_keeps_only_recent_samples(self, values, window):
        hist = Histogram("h", window=window)
        for value in values:
            hist.observe(value)
        surviving = sorted(float(v) for v in values[-window:])
        assert hist.percentile(0.0) == surviving[0]
        assert hist.percentile(1.0) == surviving[-1]
        for q in (0.25, 0.5, 0.75):
            rank = min(len(surviving) - 1, int(q * len(surviving)))
            assert hist.percentile(q) == surviving[rank]
        # count/mean stay exact over *all* observations, not the window.
        assert hist.count == len(values)

    @given(st.lists(finite, min_size=1, max_size=30), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_percentile_is_monotone_in_q(self, values, quantiles):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        ordered = sorted(quantiles)
        results = [hist.percentile(q) for q in ordered]
        assert results == sorted(results)

    def test_empty_histogram_and_invalid_quantiles(self):
        hist = Histogram("h")
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(1.0) == 0.0
        with pytest.raises(ValueError, match=r"percentile must be in \[0, 1\]"):
            hist.percentile(1.5)
        with pytest.raises(ValueError, match="window must be >= 1"):
            Histogram("h", window=0)


class TestAdmitParityUnderAllocationPolicies:
    """ISSUE satellite: admit(plan=...) must be consumption-identical to
    cold admission under non-default allocation policies, not just FCFS."""

    @pytest.mark.parametrize("allocation_name", ["equal", "proportional"])
    def test_cached_plan_yields_identical_consumption(
        self, device_profile, allocation_name
    ):
        from repro.core.baselines import spectral_cut_strategy
        from repro.mec.admission import (
            EqualShareAllocation,
            ProportionalShareAllocation,
        )
        from repro.mec.devices import EdgeServer, MobileDevice
        from repro.mec.online import OnlinePlanner

        def allocation():
            if allocation_name == "equal":
                return EqualShareAllocation()
            return ProportionalShareAllocation()

        first = synthesize_application("parity-a", n_functions=25, seed=21)
        second = synthesize_application("parity-b", n_functions=20, seed=22)
        with PlanService(make_planner("spectral")) as service:
            cached = service.plan(second).plan

        cold = OnlinePlanner(
            EdgeServer(300.0), spectral_cut_strategy(), allocation=allocation()
        )
        warm = OnlinePlanner(
            EdgeServer(300.0), spectral_cut_strategy(), allocation=allocation()
        )
        cold.admit(MobileDevice("u1", profile=device_profile), first)
        warm.admit(MobileDevice("u1", profile=device_profile), first)
        cold_record = cold.admit(MobileDevice("u2", profile=device_profile), second)
        warm_record = warm.admit(
            MobileDevice("u2", profile=device_profile), second, plan=cached
        )

        assert warm_record.plan is cached
        # Identical SystemConsumption, per user and in every component.
        assert warm_record.consumption_after.per_user == cold_record.consumption_after.per_user
        assert warm.current_consumption().per_user == cold.current_consumption().per_user


class TestReplayArrivals:
    def test_fresh_objects_share_fingerprints(self):
        workload = build_mec_system(6, quick_profile(), graph_size=30)
        arrivals = replay_arrivals(workload, seed=1)
        assert len(arrivals) == 6
        for user_id, graph in arrivals:
            pooled = workload.call_graphs[user_id]
            assert graph is not pooled
            assert graph_fingerprint(graph) == graph_fingerprint(pooled)

    def test_poisson_order_is_deterministic(self):
        workload = build_mec_system(8, quick_profile(), graph_size=30)
        first = [uid for uid, _ in replay_arrivals(workload, rate=5.0, seed=3)]
        second = [uid for uid, _ in replay_arrivals(workload, rate=5.0, seed=3)]
        assert first == second
        assert sorted(first) == sorted(uid for uid, _ in replay_arrivals(workload))


class TestServeBenchCLI:
    def test_smoke_path(self, capsys):
        from repro.cli import main

        assert main(["serve-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "service hit rate" in out
        assert "plan parity: cached == cold for 4/4 apps" in out
        assert "requests ok/shed/errored: 24/0/0" in out
        assert "request latency p50/p95" in out

    def test_spill_flag_writes_cache(self, tmp_path, capsys):
        from repro.cli import main

        spill = tmp_path / "cache.json"
        assert main(["serve-bench", "--smoke", "--spill", str(spill)]) == 0
        assert spill.exists()
        assert "spilled plan cache" in capsys.readouterr().out


class TestAcceptanceReplay:
    """The ISSUE's acceptance criterion, verbatim: 200 requests, 8 apps."""

    def test_200_request_replay_hits_cache(self):
        profile = dataclasses.replace(
            quick_profile(), distinct_graphs=8, multiuser_graph_size=40
        )
        workload = build_mec_system(200, profile)
        arrivals = replay_arrivals(workload, rate=200.0, seed=0)
        assert len({graph_fingerprint(g) for _, g in arrivals}) == 8

        planner = make_planner("spectral")
        with PlanService(planner, ServiceConfig(workers=4, max_queue_depth=256)) as service:
            tickets = [service.submit(graph) for _, graph in arrivals]
            responses = [ticket.result() for ticket in tickets]
            invocations = service.planner_invocations

        assert all(r.ok for r in responses)
        hit_rate = 1.0 - invocations / len(responses)
        assert hit_rate >= 0.9
        assert invocations <= 16

        # Byte-identical plans: cached responses vs a cold planner run.
        cold = make_planner("spectral")
        cold_digests = {
            graph_fingerprint(app): plan_digest(cold.plan_user(app))
            for app in workload.distinct_graphs
        }
        for (_, graph), response in zip(arrivals, responses):
            assert plan_digest(response.plan) == cold_digests[graph_fingerprint(graph)]
