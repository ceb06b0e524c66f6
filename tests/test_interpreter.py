"""Tests for the bytecode interpreter, the dynamic oracle of the static extractor."""

import pytest

from repro.callgraph.bytecode import ApplicationBinary
from repro.callgraph.extractor import extract_call_graph
from repro.callgraph.interpreter import BytecodeInterpreter, profile_application


def tree_binary() -> ApplicationBinary:
    """A call tree: every function invoked exactly once."""
    binary = ApplicationBinary("tree", entry_point="main")
    main = binary.define("main")
    main.compute(5.0)
    main.call("left", 10.0)
    main.call("right", 8.0)
    left = binary.define("left")
    left.compute(20.0).call("leaf", 12.0).return_data(4.0)
    binary.define("right").compute(15.0).return_data(6.0)
    binary.define("leaf").compute(30.0).sensor_read().return_data(7.0)
    return binary


class TestInterpreter:
    def test_compute_measured(self):
        profile = profile_application(tree_binary())
        assert profile.compute_per_function == {
            "main": 5.0,
            "left": 20.0,
            "right": 15.0,
            "leaf": 30.0,
        }
        assert profile.total_compute == 70.0

    def test_traffic_measured_with_returns(self):
        profile = profile_application(tree_binary())
        assert profile.traffic_between("main", "left") == pytest.approx(10.0 + 4.0)
        assert profile.traffic_between("main", "right") == pytest.approx(8.0 + 6.0)
        assert profile.traffic_between("left", "leaf") == pytest.approx(12.0 + 7.0)
        assert profile.traffic_between("main", "leaf") == 0.0

    def test_dynamic_matches_static_on_call_trees(self):
        """The static extractor and the dynamic profile must agree on
        every call-tree binary (each function invoked once)."""
        binary = tree_binary()
        static = extract_call_graph(binary)
        dynamic = profile_application(binary)
        for name in binary.functions:
            assert static.graph.node_weight(name) == pytest.approx(
                dynamic.compute_per_function.get(name, 0.0)
            )
        for u, v, weight in static.graph.edges():
            assert dynamic.traffic_between(u, v) == pytest.approx(weight)

    def test_call_counts_and_depth(self):
        profile = profile_application(tree_binary())
        assert profile.call_count["main"] == 1
        assert profile.call_count["leaf"] == 1
        assert profile.max_call_depth == 3

    def test_device_touches_recorded(self):
        profile = profile_application(tree_binary())
        assert profile.device_touches == {"leaf": 1}

    def test_repeated_calls_double_dynamic_traffic(self):
        binary = ApplicationBinary("rep", entry_point="main")
        binary.define("main").call("w", 5.0).call("w", 5.0)
        binary.define("w").compute(2.0).return_data(3.0)
        profile = profile_application(binary)
        # Dynamic: both invocations pay args and returns.
        assert profile.traffic_between("main", "w") == pytest.approx(2 * 5.0 + 2 * 3.0)
        assert profile.compute_per_function["w"] == pytest.approx(4.0)

    def test_recursion_guard(self):
        binary = ApplicationBinary("rec", entry_point="loop")
        binary.define("loop").call("loop", 1.0)
        with pytest.raises(RecursionError, match="call depth"):
            BytecodeInterpreter(binary, max_depth=50).run()

    def test_invalid_binary_rejected(self):
        binary = ApplicationBinary("bad", entry_point="missing")
        binary.define("f")
        with pytest.raises(ValueError):
            BytecodeInterpreter(binary)

