"""Check that the benchmark is steady across seeds.

Run from the repository root::

    python3 perfbench/steadiness.py --workload plan-fig6 --seeds 1 10

Runs the untraced benchmark once per seed and prints, for every
end-to-end metric, the median and the inter-quartile spread as a share
of the median next to the metric's bound from ``BENCHMARK.json``.  A
spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from stats import median, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    values: dict[str, list[float]] = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        started = time.perf_counter()
        completed = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        took = time.perf_counter() - started
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        row = {name: entry["value"] for name, entry in result["metrics"].items()}
        print(f"seed {seed} ({took:.0f} s): " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        share = spread(series) if len(series) >= 2 else 0.0
        flag = "" if share <= metric["bound"] / 3 or metric["name"] == "setup_s" else "  UNSTEADY"
        print(f"{metric['name']:>14}: median {median(series):.6g} {metric['unit']}, "
              f"spread {share:.3f} (bound {metric['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
