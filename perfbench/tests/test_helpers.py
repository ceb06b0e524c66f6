"""Tests for the benchmark's own helpers."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import time

import pytest

import gate
import inputs
import serve_bench
import speed
from layers import PER_LAYER_NAMES
from run import UNITS, layer_unit
from spans import Span, Tracer, layer_totals, self_times
from stats import median, percentile, tail_level

from repro import make_planner
from repro.service import plan_digest, plan_to_dict
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Percentile selection under the ten-beyond rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, level",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert tail_level(count) == level
    if level is not None:
        values = list(range(count))
        above = [v for v in values if v > percentile(values, level)]
        assert len(above) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 1) == 1.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# ----------------------------------------------------------------------
# Self time for nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 4.0, 8.0),
        Span(4, 3, "a", 5.0, 6.0),
        Span(5, 0, "root", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    totals = layer_totals(spans)
    assert totals["a"].calls == 2 and totals["a"].self_s == 3.0
    assert totals["root"].self_s == 5.0
    # Self times partition the root spans' wall time.
    assert sum(own.values()) == pytest.approx(11.0)


def test_wrapped_calls_nest_and_record_keys_and_errors():
    tracer = Tracer()

    def inner(x):
        time.sleep(0.002)
        if x < 0:
            raise ValueError("negative")
        return f"key-{x}"

    wrapped_inner = tracer.wrap(inner, "inner", key=lambda args, result: result)

    def outer():
        time.sleep(0.002)
        wrapped_inner(1)
        try:
            wrapped_inner(-1)
        except ValueError:
            pass
        return "done"

    errors = []
    tracer.wrap(outer, "outer", on_error=lambda t, e: errors.append(e))()
    by_name = {span.name: span for span in tracer.spans if span.name == "outer"}
    outer_span = by_name["outer"]
    children = [span for span in tracer.spans if span.parent == outer_span.span_id]
    assert [span.key for span in children] == ["key-1", None]
    own = self_times(tracer.spans)
    assert own[outer_span.span_id] == pytest.approx(
        outer_span.duration - sum(child.duration for child in children)
    )
    assert not errors  # the inner error was handled inside outer


def test_tracer_dump_round_trips(tmp_path):
    tracer = Tracer()
    tracer.wrap(lambda: None, "layer")()
    tracer.count("hits", 3)
    tracer.sample("wait", 0.5)
    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    again = Tracer.load(path)
    assert again.spans == tracer.spans
    assert again.counters["hits"] == 3 and again.samples["wait"] == [0.5]


# ----------------------------------------------------------------------
# Same seed, same inputs
# ----------------------------------------------------------------------
def test_same_seed_gives_same_schedule():
    rungs = inputs.LADDER + (inputs.SATURATION,)
    first, second = inputs.serve_schedule(7, rungs), inputs.serve_schedule(7, rungs)
    assert first == second
    assert first != inputs.serve_schedule(8, rungs)
    for rung_index, rung in enumerate(rungs):
        rung_requests = [r for r in first if r.rung == rung_index]
        assert len(rung_requests) == rung.requests
        assert sum(r.cold for r in rung_requests) == round(inputs.COLD_SHARE * rung.requests)
        assert max(r.due for r in rung_requests) <= rung.requests / rung.rate
    cold_apps = [r.app for r in first if r.cold]
    assert len(cold_apps) == len(set(cold_apps)), "a one-off app was repeated"
    nominal = inputs.nominal_rung(30)
    assert nominal.requests == 90 and nominal.nominal


def test_same_seed_gives_same_apps():
    popular = [inputs.popular_app(3, index) for index in range(2)]
    again = [inputs.popular_app(3, index) for index in range(2)]
    assert [inputs.payload_bytes(a) for a in popular] == [inputs.payload_bytes(a) for a in again]
    assert inputs.payload_bytes(inputs.popular_app(4, 0)) != inputs.payload_bytes(popular[0])
    one_off = inputs.payload_bytes(inputs.one_off_app(3, popular, 5))
    assert one_off == inputs.payload_bytes(inputs.one_off_app(3, again, 5))
    assert one_off != inputs.payload_bytes(inputs.one_off_app(3, popular, 6))


def test_same_seed_gives_same_systems(monkeypatch):
    monkeypatch.setitem(inputs.CONTENDED, "users", 8)
    monkeypatch.setitem(inputs.CONTENDED, "library", 5)
    monkeypatch.setitem(inputs.CONTENDED, "systems", 3)
    first = inputs.plan_systems("plan-contended", 11)
    second = inputs.plan_systems("plan-contended", 11)
    other = inputs.plan_systems("plan-contended", 12)

    def shape(systems):
        return [
            [inputs.payload_bytes(graph) for graph in system.distinct_graphs]
            for system in systems
        ]

    assert shape(first) == shape(second)
    assert shape(first) != shape(other)
    assert len(first) == 3 and all(len(s.distinct_graphs) == 4 for s in first)
    assert first[0].system.channel.capacity == pytest.approx(0.25 * 8 * 70.0)


# ----------------------------------------------------------------------
# The correctness gate fires on a perturbed plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_plan():
    profile = dataclasses.replace(quick_profile(), seed=5)
    workload = build_mec_system(6, profile, graph_size=40)
    planner = make_planner("spectral")
    result = planner.plan_system(workload.system, workload.call_graphs)
    weights = planner.config.objective
    reference = {
        "digest": gate.placement_digest(result.scheme.remote_functions),
        "objective": result.consumption.combined(weights),
    }
    return workload, result, weights, reference


def test_gate_accepts_the_plan_it_recorded(small_plan):
    workload, result, weights, reference = small_plan
    assert gate.check_plan(workload, result, weights, reference) == []


def test_gate_fires_on_perturbed_reference(small_plan):
    workload, result, weights, reference = small_plan
    wrong_digest = dict(reference, digest="0" * 64)
    assert gate.check_plan(workload, result, weights, wrong_digest)
    off_objective = dict(reference, objective=reference["objective"] * (1 + 1e-6))
    assert gate.check_plan(workload, result, weights, off_objective)
    within = dict(reference, objective=reference["objective"] * (1 + 1e-12))
    assert gate.check_plan(workload, result, weights, within) == []


def test_gate_fires_on_perturbed_placement(small_plan):
    workload, result, weights, reference = small_plan
    perturbed = copy.deepcopy(result)
    user = next(u for u, parts in perturbed.greedy.remote_parts.items() if parts)
    perturbed.greedy.remote_parts[user] = set()
    problems = gate.check_plan(workload, perturbed, weights, None)
    assert any("scheme" in p for p in problems)


def test_gate_fires_on_perturbed_consumption(small_plan):
    workload, result, weights, reference = small_plan
    perturbed = copy.deepcopy(result)
    user = next(iter(perturbed.consumption.per_user))
    breakdown = perturbed.consumption.per_user[user]
    perturbed.consumption.per_user[user] = dataclasses.replace(
        breakdown, local_energy=breakdown.local_energy + 1.0
    )
    problems = gate.check_plan(workload, perturbed, weights, None)
    assert any("evaluate_placement" in p for p in problems)


def test_gate_fires_on_parts_that_miss_functions(small_plan):
    workload, result, weights, reference = small_plan
    perturbed = copy.deepcopy(result)
    plan = perturbed.user_plans[workload.system.users[0].user_id]
    plan.parts[0] = frozenset(sorted(plan.parts[0])[1:])
    problems = gate.check_plan(workload, perturbed, weights, None)
    assert any("not a valid partition" in p for p in problems)


def test_response_check_fires_on_perturbed_plan():
    graph = inputs.one_off_app(1, [inputs.popular_app(1, 0)], 0)
    plan = make_planner("spectral").plan_user(graph)
    want = plan_digest(plan)
    body = {"plan": plan_to_dict(plan), "plan_digest": want}
    good = serve_bench.Outcome(inputs.Request(0, 0, 0.0, 0, True), 0.1, status=200,
                               body=json.dumps(body).encode())
    assert serve_bench.response_problem(good, want) is None
    tampered = copy.deepcopy(body)
    tampered["plan"]["cut_values"][0] += 1.0
    bad = dataclasses.replace(good, body=json.dumps(tampered).encode())
    assert "does not match" in serve_bench.response_problem(bad, want)
    assert "differs" in serve_bench.response_problem(good, "f" * 64)
    assert "HTTP status" in serve_bench.response_problem(dataclasses.replace(good, status=500), want)


# ----------------------------------------------------------------------
# Ladder bookkeeping
# ----------------------------------------------------------------------
def _report(rate, latency, lag=0.0, backlogs=(0, 0)):
    rung = inputs.Rung(rate, 4)
    outcomes = [
        serve_bench.Outcome(inputs.Request(i, 0, 0.0, 0, False), latency, lag=lag, backlog=b)
        for i, b in enumerate([backlogs[0]] * 2 + [backlogs[1]] * 2)
    ]
    return serve_bench.judge(rung, outcomes)


def test_max_rate_stops_at_first_failing_or_invalid_rung():
    ok = _report(6, 0.2)
    assert ok.valid and ok.passed
    slow = _report(9, 5.0)
    assert not slow.passed
    growing = _report(9, 0.2, backlogs=(0, 3))
    assert growing.valid and not growing.passed
    behind = _report(9, 0.2, lag=1.0)
    assert not behind.valid
    assert serve_bench.max_rate([ok, _report(8, 0.3), slow, _report(10, 0.1)]) == 8
    assert serve_bench.max_rate([ok, behind, _report(10, 0.1)]) == 6
    assert serve_bench.max_rate([ok, growing]) == 6


# ----------------------------------------------------------------------
# BENCHMARK.json names exactly what the command prints
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layer_unit(name) for name in PER_LAYER_NAMES
    }
    assert [w["name"] for w in spec["workloads"]] == ["plan-fig6", "plan-contended", "serve-mixed"]


# ----------------------------------------------------------------------
# Host-speed probes
# ----------------------------------------------------------------------
def test_slowdown_is_the_median_probe_near_the_interval():
    ref = speed.PROBE_REFERENCE_S
    probes = speed.Probes([(0.0, ref), (1.0, 2 * ref), (1.5, 3 * ref), (2.0, 2 * ref), (9.0, ref)])
    assert probes.slowdown(1.0, 2.0) == pytest.approx(2.0)
    # A short span is judged by the probes within WINDOW_S about its middle.
    assert speed.WINDOW_S == 1.0
    assert probes.slowdown(1.5, 1.5) == pytest.approx(2.0)
    assert probes.slowdown(1.9, 1.9) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        probes.slowdown(5.0, 6.0)


def test_normalise_removes_probe_time_and_scales_to_reference():
    ref = speed.PROBE_REFERENCE_S
    probes = speed.Probes([(1.0, 2 * ref), (2.0, 2 * ref)])
    assert probes.normalise(0.5, 3.0) == pytest.approx((2.5 - 4 * ref) / 2.0)


def test_probes_round_trip_through_the_prober_file(tmp_path):
    path = tmp_path / "probes.txt"
    path.write_text("1.25 0.0005\n2.5 0.00025\n")
    assert speed.Probes.load(str(path)).probes == [(1.25, 0.0005), (2.5, 0.00025)]


def test_sampler_probes_while_active():
    with speed.SpeedSampler() as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.2:
            sum(range(1000))
    count = len(sampler.probes)
    assert count >= 3
    assert sampler.slowdown(started, time.perf_counter()) > 0
    time.sleep(2 * speed.INTERVAL_S)
    assert len(sampler.probes) == count
