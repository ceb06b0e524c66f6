"""Property tests of the simulator against the analytic model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.callgraph.model import FunctionCallGraph
from repro.simulation import simulate_scheme


@st.composite
def simulation_inputs(draw):
    """Random single-user workload: (local, remote, cut, capacities)."""
    return dict(
        local=draw(st.floats(0.0, 500.0)),
        remote=draw(st.floats(0.1, 500.0)),
        cut=draw(st.floats(0.0, 200.0)),
        server=draw(st.floats(1.0, 1000.0)),
        bandwidth=draw(st.floats(1.0, 500.0)),
    )


@given(simulation_inputs())
@settings(max_examples=50, deadline=None)
def test_simulated_energy_matches_analytic_everywhere(params):
    """Property: under healthy conditions, measured energy == formulas
    (1)-(5) for arbitrary workload magnitudes."""
    profile = DeviceProfile(
        compute_capacity=10.0,
        power_compute=2.0,
        power_transmit=5.0,
        bandwidth=params["bandwidth"],
    )
    fcg = FunctionCallGraph("prop")
    fcg.add_function("pin", computation=params["local"], offloadable=False)
    fcg.add_function("ship", computation=params["remote"])
    if params["cut"] > 0:
        fcg.add_data_flow("pin", "ship", params["cut"])
    app = PartitionedApplication("u1", fcg, [{"ship"}])
    system = MECSystem(
        EdgeServer(params["server"]),
        [UserContext(MobileDevice("u1", profile=profile), fcg)],
    )
    placement = {"u1": {0}}
    report = simulate_scheme(system, app and {"u1": app}, placement)
    analytic = system.evaluate_placement({"u1": app}, placement)
    assert np.isclose(report.total_energy, analytic.energy, rtol=1e-9, atol=1e-9)
    timeline = report.timeline("u1")
    breakdown = analytic.per_user["u1"]
    assert np.isclose(timeline.local_energy, breakdown.local_energy)
    assert np.isclose(timeline.transmission_energy, breakdown.transmission_energy)


@given(simulation_inputs(), st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_simulation_timeline_invariants(params, arrival):
    """Structural invariants hold for arbitrary inputs and arrivals."""
    profile = DeviceProfile(
        compute_capacity=10.0,
        power_compute=2.0,
        power_transmit=5.0,
        bandwidth=params["bandwidth"],
    )
    fcg = FunctionCallGraph("prop")
    fcg.add_function("pin", computation=params["local"], offloadable=False)
    fcg.add_function("ship", computation=params["remote"])
    if params["cut"] > 0:
        fcg.add_data_flow("pin", "ship", params["cut"])
    app = PartitionedApplication("u1", fcg, [{"ship"}])
    system = MECSystem(
        EdgeServer(params["server"]),
        [UserContext(MobileDevice("u1", profile=profile), fcg)],
    )
    report = simulate_scheme(
        system, {"u1": app}, {"u1": {0}}, arrivals={"u1": arrival}
    )
    t = report.timeline("u1")
    # Causality chain.
    assert t.upload_start == pytest.approx(arrival)
    assert t.upload_finish >= t.upload_start - 1e-9
    assert t.service_start >= t.upload_finish - 1e-9
    assert t.service_finish >= t.service_start - 1e-9
    assert report.makespan == pytest.approx(t.completion)
    # Non-negative measures.
    assert t.waiting >= 0.0
    assert t.sojourn >= 0.0
    assert report.server_busy <= report.makespan + 1e-9
