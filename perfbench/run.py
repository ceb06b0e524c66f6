"""The repository benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload plan-fig6 --seed 1 --seconds 30 --trace 0

Workloads: ``plan-fig6`` and ``plan-contended`` time ``plan_system``;
``serve-mixed`` drives the HTTP server in its own process.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric, recorded by wrapping the layers' public entry points.  The
command exits 1 when any output fails its correctness gate, and 2 when
the program cannot be imported.  ``BENCHMARK.json`` and
``perfbench/manifest.json`` describe the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("plan-fig6", "plan-contended", "serve-mixed")

UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cold_p50_ms": "ms",
    "plan_quality": "cost",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s") or name.endswith("s_per_move"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio") or name.endswith("coverage"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cannot find the program: no package at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import repro: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    # A job started in the background by a shell inherits SIGINT ignored,
    # and so would the server process, which stops on SIGINT.  A handler
    # here is reset to the default in every child at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        import serve_bench

        outcome = serve_bench.run(args.seed, args.seconds, trace, SRC, OUT)
    else:
        import plan_bench

        outcome = plan_bench.run(args.workload, args.seed, args.seconds, trace, SRC, OUT)

    for problem in outcome["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    correct = not outcome["problems"] and outcome["failed"] == 0
    # A failed request has infinite latency; JSON has no infinity, and such
    # a run is already marked incorrect.
    metrics = {
        name: {
            "value": value if math.isfinite(value) else None,
            "unit": UNITS.get(name) or layer_unit(name),
        }
        for name, value in outcome["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
