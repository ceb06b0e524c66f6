"""Hot-path benchmark: planning throughput, thread vs process executor.

Not pytest-collected (``testpaths = ["tests"]``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke

Emits ``BENCH_hotpath.json`` with plans/sec for ``PlanService`` in
thread vs process executor mode, plus the per-stage p50s (compression /
cut) from the service histograms, so the process executor's payoff is
tracked across changes.

CI runs the ``--smoke`` variant and fails on crash only, never on
regression — absolute numbers depend on the runner, so the JSON artifact
is for humans (and future tooling) to diff, not a gate.  The artifact is
a *trajectory*: each run appends an entry (old single-entry files are
wrapped), so regressions across PRs stay visible in the diff.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from repro.core import make_planner
from repro.service import PlanService, ServiceConfig
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import replay_arrivals


def bench_service(executor: str, arrivals, workers: int, strategy: str = "spectral") -> dict:
    """Replay *arrivals* through a cold service; return throughput + p50s."""
    config = ServiceConfig(workers=workers, executor=executor, max_queue_depth=len(arrivals) + 1)
    with PlanService(make_planner(strategy), config) as service:
        started = time.perf_counter()
        tickets = [service.submit(graph) for _, graph in arrivals]
        responses = [ticket.result() for ticket in tickets]
        elapsed = time.perf_counter() - started
        stage_p50 = {
            "compress_seconds": service.metrics.histogram("stage_compress_seconds").percentile(0.5),
            "cut_seconds": service.metrics.histogram("stage_cut_seconds").percentile(0.5),
            "request_latency_seconds": service.metrics.histogram(
                "request_latency_seconds"
            ).percentile(0.5),
        }
        invocations = service.planner_invocations
    ok = sum(1 for response in responses if response.ok)
    if ok != len(responses):
        raise RuntimeError(f"{executor}: {len(responses) - ok} requests failed")
    return {
        "executor": executor,
        "requests": len(responses),
        "seconds": elapsed,
        "plans_per_sec": len(responses) / elapsed if elapsed > 0 else 0.0,
        "planner_invocations": invocations,
        "stage_p50": stage_p50,
    }


def _append_trajectory(path: Path, entry: dict, keep: int = 20) -> dict:
    """Fold *entry* into the trajectory file at *path*.

    Older files held a single run as a flat dict; those are wrapped as
    the first trajectory entry so history is preserved.  Only the last
    *keep* entries are retained.
    """
    trajectory: list[dict] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            previous = None
        if isinstance(previous, dict):
            if isinstance(previous.get("trajectory"), list):
                trajectory = previous["trajectory"]
            else:
                previous.pop("benchmark", None)
                trajectory = [previous]
    trajectory.append(entry)
    return {"benchmark": "hotpath", "trajectory": trajectory[-keep:]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the planning hot path.")
    parser.add_argument("--smoke", action="store_true", help="tiny workload for CI")
    parser.add_argument("--requests", type=int, default=96)
    parser.add_argument("--pool", type=int, default=8, help="distinct apps in the trace")
    parser.add_argument("--graph-size", type=int, default=120, help="functions per app")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=Path("BENCH_hotpath.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests, args.pool, args.graph_size, args.workers = 24, 4, 40, 2

    profile = dataclasses.replace(
        quick_profile(),
        distinct_graphs=args.pool,
        multiuser_graph_size=args.graph_size,
        seed=2019 + args.seed,
    )
    workload = build_mec_system(args.requests, profile)
    arrivals = replay_arrivals(workload, rate=200.0, seed=args.seed)

    service = {
        executor: bench_service(executor, arrivals, args.workers)
        for executor in ("thread", "process")
    }
    process_speedup = (
        service["process"]["plans_per_sec"] / service["thread"]["plans_per_sec"]
        if service["thread"]["plans_per_sec"] > 0
        else 0.0
    )

    cpu_count = os.cpu_count() or 1
    entry = {
        "smoke": args.smoke,
        "cpu_count": cpu_count,
        "note": (
            "host has <4 cores: the process executor cannot beat the thread "
            "executor here; the >=1.5x process-speedup criterion applies on "
            ">=4-core runners"
            if cpu_count < 4
            else ""
        ),
        "config": {
            "requests": args.requests,
            "pool": args.pool,
            "graph_size": args.graph_size,
            "workers": args.workers,
            "seed": args.seed,
        },
        "service": service,
        "process_vs_thread_speedup": process_speedup,
    }
    args.output.write_text(json.dumps(_append_trajectory(args.output, entry), indent=2) + "\n")

    print(
        f"service: thread {service['thread']['plans_per_sec']:.1f} plans/s, "
        f"process {service['process']['plans_per_sec']:.1f} plans/s "
        f"({process_speedup:.2f}x)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
