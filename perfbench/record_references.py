"""Record the reference placements the plan workloads are gated against.

Run from the repository root, for example::

    python3 perfbench/record_references.py --workload plan-fig6 --seeds 0 31

Each seed's systems are planned once; the plan must pass every
self-consistency check before its placement digest and objective are
stored in ``perfbench/references.json``.  Re-record only when a change
is meant to alter placements, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
from plan_bench import plan_once  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.PLAN_WORKLOADS, required=True)
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args()

    for seed in range(args.seeds[0], args.seeds[1] + 1):
        recorded = []
        for index, system in enumerate(inputs.plan_systems(args.workload, seed)):
            planner, result, wall = plan_once(system)
            weights = planner.config.objective
            problems = gate.check_plan(system, result, weights, reference=None)
            if problems:
                print(f"seed {seed} system {index}: {problems}", file=sys.stderr)
                return 1
            recorded.append(
                {
                    "digest": gate.placement_digest(result.scheme.remote_functions),
                    "objective": result.consumption.combined(weights),
                }
            )
            print(f"{args.workload} seed {seed} system {index}: {wall:.2f} s", flush=True)
        # Re-read before writing so concurrent recorders of different
        # workloads do not drop each other's entries.
        references = gate.load_references() if os.path.exists(gate.REFERENCES) else {}
        references.setdefault(args.workload, {})[str(seed)] = recorded
        with open(gate.REFERENCES, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
