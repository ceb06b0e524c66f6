"""Tests for workload traces and simulated arrivals."""

import pytest

from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.simulation import simulate_scheme
from repro.workloads.multiuser import build_mec_system, poisson_arrivals
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import load_trace, save_trace

PROFILE = DeviceProfile(
    compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
)


class TestTraces:
    def test_roundtrip_preserves_structure(self, tmp_path):
        workload = build_mec_system(5, quick_profile(), graph_size=60)
        path = tmp_path / "trace.json"
        save_trace(workload, path)
        loaded = load_trace(path)

        assert len(loaded.system.users) == 5
        assert loaded.system.server.total_capacity == pytest.approx(
            workload.system.server.total_capacity
        )
        assert loaded.user_graph_index == workload.user_graph_index
        for original, rebuilt in zip(workload.distinct_graphs, loaded.distinct_graphs):
            assert rebuilt.function_count == original.function_count
            assert rebuilt.total_communication() == pytest.approx(
                original.total_communication()
            )

    def test_pool_sharing_preserved(self, tmp_path):
        workload = build_mec_system(6, quick_profile(), graph_size=60)
        path = tmp_path / "trace.json"
        save_trace(workload, path)
        loaded = load_trace(path)
        # Users with the same pool index share one object.
        by_index: dict[int, object] = {}
        for user_id, index in loaded.user_graph_index.items():
            graph = loaded.call_graphs[user_id]
            if index in by_index:
                assert graph is by_index[index]
            by_index[index] = graph

    def test_plans_identically_after_reload(self, tmp_path):
        from repro.core import make_planner

        workload = build_mec_system(4, quick_profile(), graph_size=60)
        path = tmp_path / "trace.json"
        save_trace(workload, path)
        loaded = load_trace(path)
        planner = make_planner("spectral")
        original = planner.plan_system(workload.system, workload.call_graphs)
        reloaded = planner.plan_system(loaded.system, loaded.call_graphs)
        assert reloaded.consumption.energy == pytest.approx(original.consumption.energy)
        assert reloaded.consumption.time == pytest.approx(original.consumption.time)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(path)


class TestArrivals:
    def make_user(self, uid: str):
        from repro.callgraph.model import FunctionCallGraph

        fcg = FunctionCallGraph(uid)
        fcg.add_function("pin", computation=20.0, offloadable=False)
        fcg.add_function("ship", computation=100.0)
        fcg.add_data_flow("pin", "ship", 20.0)
        app = PartitionedApplication(uid, fcg, [{"ship"}])
        return UserContext(MobileDevice(uid, profile=PROFILE), fcg), app

    def test_poisson_arrivals_monotone_and_seeded(self):
        users = [f"u{i}" for i in range(10)]
        a = poisson_arrivals(users, rate=2.0, seed=1)
        b = poisson_arrivals(users, rate=2.0, seed=1)
        assert a == b
        times = [a[u] for u in users]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))

    def test_poisson_rate_validated(self):
        with pytest.raises(ValueError):
            poisson_arrivals(["u1"], rate=0.0)

    def test_arrival_shifts_timeline(self):
        ctx, app = self.make_user("u1")
        system = MECSystem(EdgeServer(50.0), [ctx])
        base = simulate_scheme(system, {"u1": app}, {"u1": {0}})
        shifted = simulate_scheme(
            system, {"u1": app}, {"u1": {0}}, arrivals={"u1": 5.0}
        )
        t0, t5 = base.timeline("u1"), shifted.timeline("u1")
        assert t5.local_finish == pytest.approx(t0.local_finish + 5.0)
        assert t5.upload_finish == pytest.approx(t0.upload_finish + 5.0)
        assert t5.service_finish == pytest.approx(t0.service_finish + 5.0)
        # Relative metrics are arrival-invariant.
        assert t5.sojourn == pytest.approx(t0.sojourn)
        assert t5.airtime == pytest.approx(t0.airtime)
        assert shifted.total_energy == pytest.approx(base.total_energy)

    def test_staggered_arrivals_reduce_server_contention(self):
        contexts, apps = [], {}
        for uid in ("u1", "u2"):
            ctx, app = self.make_user(uid)
            contexts.append(ctx)
            apps[uid] = app
        system = MECSystem(EdgeServer(10.0), contexts)  # slow server
        placement = {"u1": {0}, "u2": {0}}
        together = simulate_scheme(system, apps, placement)
        staggered = simulate_scheme(
            system, apps, placement, arrivals={"u2": 100.0}
        )
        # Arriving after u1's job drained, u2 waits less.
        assert staggered.timeline("u2").waiting < together.timeline("u2").waiting

    def test_unknown_user_arrival_rejected(self):
        ctx, app = self.make_user("u1")
        system = MECSystem(EdgeServer(50.0), [ctx])
        with pytest.raises(ValueError, match="unknown user"):
            simulate_scheme(system, {"u1": app}, {"u1": {0}}, arrivals={"ghost": 1.0})

    def test_negative_arrival_rejected(self):
        ctx, app = self.make_user("u1")
        system = MECSystem(EdgeServer(50.0), [ctx])
        with pytest.raises(ValueError, match=">= 0"):
            simulate_scheme(system, {"u1": app}, {"u1": {0}}, arrivals={"u1": -1.0})

    def test_fault_before_arrival_applies_from_upload_start(self):
        """A bandwidth drop that fires while the user is still absent must
        slow their upload from its first second."""
        from repro.simulation import BandwidthChange

        ctx, app = self.make_user("u1")  # cut 20 at bandwidth 70
        system = MECSystem(EdgeServer(500.0), [ctx])
        report = simulate_scheme(
            system,
            {"u1": app},
            {"u1": {0}},
            faults=[BandwidthChange(time=1.0, user_id="u1", factor=0.5)],
            arrivals={"u1": 10.0},
        )
        t = report.timeline("u1")
        # Upload runs 20 units at 35/s (halved) starting at t=10.
        assert t.upload_finish == pytest.approx(10.0 + 20.0 / 35.0)
