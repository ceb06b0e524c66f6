"""The plan workloads: ``plan_system`` timed end to end and per layer."""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import subprocess
import sys
import time
from typing import Any

import gate
import inputs
import layers
from speed import SpeedSampler
from spans import Tracer, layer_totals
from stats import median

SETUP_REPEATS = 5
COVERAGE_FLOOR = 0.95
"""The traced run's layer self times must cover this share of wall time."""


def import_fresh(src: str) -> None:
    """Start a fresh interpreter that imports ``repro``."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )


def setup_seconds(src: str, workload: Any) -> float:
    """Median over repeats of: import in a fresh interpreter, then build
    the planner and the ``MECSystem`` from the generated graphs, on one
    CPU and at reference speed."""
    from repro import make_planner

    samples = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            import_fresh(src)
            make_planner("spectral")
            inputs.assemble(
                workload.distinct_graphs, len(workload.system.users), workload.system.channel
            )
            samples.append(sampler.normalise(started, time.perf_counter()))
    os.sched_setaffinity(0, cpus)
    return median(samples)


def plan_once(workload: Any, sampler: SpeedSampler | None = None) -> tuple[Any, Any, float]:
    """One ``plan_system`` call with a fresh planner, and its wall time
    (at reference speed when a *sampler* is running)."""
    from repro import make_planner

    gc.collect()
    planner = make_planner("spectral")
    started = time.perf_counter()
    result = planner.plan_system(workload.system, workload.call_graphs)
    ended = time.perf_counter()
    wall = sampler.normalise(started, ended) if sampler else ended - started
    return planner, result, wall


def warm_up() -> None:
    """Plan a tiny system once so lazy imports are not timed as planning."""
    from repro.mec.channel import SharedChannel
    from repro.workloads.multiuser import build_mec_system
    from repro.workloads.profiles import quick_profile

    tiny = build_mec_system(
        4, quick_profile(), graph_size=40, channel=SharedChannel(capacity=70.0)
    )
    plan_once(tiny)


def run(name: str, seed: int, seconds: float, trace: bool, src: str, out_dir: str) -> dict:
    systems = inputs.plan_systems(name, seed)
    references = gate.load_references()
    setup = 0.0 if trace else setup_seconds(src, systems[0])
    warm_up()

    walls: dict[int, list[float]] = {}
    traced_walls: list[float] = []
    paired_untraced: list[float] = []
    objectives: dict[int, float] = {}
    digests: dict[int, str] = {}
    attempted = failed = 0
    problems: list[str] = []
    tracer = Tracer()

    def check(index: int, planner: Any, result: Any) -> None:
        nonlocal attempted, failed
        attempted += 1
        weights = planner.config.objective
        reference = gate.reference_for(references, name, seed, index)
        found = gate.check_plan(systems[index], result, weights, reference)
        digest = gate.placement_digest(result.scheme.remote_functions)
        if digests.setdefault(index, digest) != digest:
            found.append("placement changed between samples")
        if found:
            failed += 1
            problems.extend(f"system {index}: {p}" for p in found)
        objectives[index] = result.consumption.combined(weights)

    def traced_plan(system_index: int) -> float:
        patches = layers.install(tracer)
        try:
            planner, result, wall = plan_once(systems[system_index])
        finally:
            patches.restore()
        check(system_index, planner, result)
        return wall

    # Successive samples run on alternating CPUs, so that neither CPU's
    # speed weighs on the run alone; untraced samples are timed at
    # reference speed (see speed.py).
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    index = 0
    sampler = None if trace else SpeedSampler()
    with sampler or contextlib.nullcontext():
        while True:
            system_index = index % len(systems)
            rounds = index // len(systems)
            os.sched_setaffinity(0, {cpus[(system_index + rounds) % len(cpus)]})
            # The traced run pairs each traced plan with an untraced plan of
            # the same system, alternating which goes first (traced first on
            # the first pair, so a single pair errs towards more overhead).
            traced_first = trace and index % 2 == 0
            if traced_first:
                traced_walls.append(traced_plan(system_index))
            planner, result, wall = plan_once(systems[system_index], sampler)
            check(system_index, planner, result)
            if trace:
                if not traced_first:
                    traced_walls.append(traced_plan(system_index))
                paired_untraced.append(wall)
            walls.setdefault(system_index, []).append(wall)
            index += 1
            # Stop at the sample count whose end lies nearest to --seconds.
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / index / 2 > seconds:
                break
    os.sched_setaffinity(0, cpus)

    if trace:
        metrics = per_layer_metrics(tracer, traced_walls, paired_untraced)
        coverage = metrics.pop("_coverage")
        if coverage < COVERAGE_FLOOR:
            problems.append(
                f"layer self times cover {coverage:.3f} of traced wall time (< {COVERAGE_FLOOR})"
            )
        metrics["fail_ratio"] = failed / attempted
        tracer.dump(os.path.join(out_dir, f"{name}-{seed}-spans.json"))
    else:
        # Repeats of one system are the same deterministic work, so they
        # differ only by host noise: take each system's median call and
        # report the median over systems.
        wall_p50 = median([median(samples) for samples in walls.values()])
        sys.stderr.write(
            f"{name}: {attempted} plans; per-system min "
            f"{median([min(v) for v in walls.values()]) * 1000:.1f} ms, "
            f"median {wall_p50 * 1000:.1f} ms\n"
        )
        metrics = {
            "setup_s": setup,
            "p50_ms": wall_p50 * 1000.0,
            "cold_p50_ms": wall_p50 * 1000.0,
            "plan_quality": median(list(objectives.values())),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def per_layer_metrics(
    tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]
) -> dict[str, float]:
    """Per-plan averages of every layer the plan workloads exercise."""
    samples = len(traced_walls)
    totals = layer_totals(tracer.spans)
    counters = tracer.counters

    def calls(span: str) -> float:
        entry = totals.get(span)
        return entry.calls / samples if entry else 0.0

    def own(span: str) -> float:
        entry = totals.get(span)
        return entry.self_s / samples if entry else 0.0

    wall = sum(traced_walls) / samples
    covered = sum(own(span) for span in layers.LAYER_SPANS)
    moves = counters["mec.greedy.moves"] / samples
    nodes_in = counters["compression.nodes_in"]
    metrics = layers.empty_layer_metrics()
    metrics.update(
        {
            "service.fingerprint.calls": calls("service.fingerprint"),
            "service.fingerprint.s": own("service.fingerprint"),
            "mec.scheme.app_build.calls": calls("mec.scheme.app_build"),
            "mec.scheme.app_build.s": own("mec.scheme.app_build"),
            "mec.greedy.s": own("mec.greedy"),
            "mec.greedy.moves": moves,
            "mec.greedy.s_per_move": own("mec.greedy") / moves if moves else 0.0,
            "mec.greedy.contention_rounds": counters["mec.greedy.contention_rounds"] / samples,
            "mec.system.evaluate_placement.calls": calls("mec.system.evaluate_placement"),
            "mec.system.evaluate_placement.s": own("mec.system.evaluate_placement"),
            "core.planner.plan_user.calls": calls("core.planner.plan_user"),
            "core.planner.plan_user.s": own("core.planner.plan_user"),
            "compression.compress.calls": calls("compression.compress"),
            "compression.compress.s": own("compression.compress"),
            "compression.rounds": counters["compression.rounds"] / samples,
            "compression.node_ratio": (
                counters["compression.nodes_out"] / nodes_in if nodes_in else 0.0
            ),
            "spectral.cut.calls": calls("spectral.cut"),
            "spectral.cut.s": own("spectral.cut"),
            "other.s": own(layers.PLAN_SYSTEM),
            "trace.wall_s": wall,
            "trace.coverage": covered / wall,
            "trace.overhead_ratio": sum(traced_walls) / sum(untraced_walls),
        }
    )
    metrics["_coverage"] = covered / wall
    return metrics
