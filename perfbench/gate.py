"""Correctness gates: a fast wrong answer must never count as a result."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from repro.mec.scheme import PartitionedApplication
from repro.workloads.multiuser import MultiUserWorkload

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
OBJECTIVE_RTOL = 1e-9


def placement_digest(remote_functions: dict[str, set[str]]) -> str:
    """Hash of the function-level placement (user -> offloaded functions)."""
    canonical = sorted((user, sorted(functions)) for user, functions in remote_functions.items())
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


def close(a: float, b: float, rtol: float = OBJECTIVE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def load_references(path: str = REFERENCES) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(
    references: dict[str, Any], workload: str, seed: int, index: int
) -> dict[str, Any] | None:
    """The recorded ``{"digest", "objective"}`` of one system, if any."""
    recorded = references.get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    return recorded[index]


def check_plan(
    workload: MultiUserWorkload,
    result: Any,
    weights: Any,
    reference: dict[str, Any] | None,
) -> list[str]:
    """Problems with one ``plan_system`` result (empty list = correct).

    * the placement digest and objective match the recorded reference;
    * re-evaluating the returned part placement with ``evaluate_placement``
      reproduces the reported consumption, per user and in total;
    * the scheme offloads exactly the functions of the remote parts, and
      the parts cover every offloadable function (checked by building a
      ``PartitionedApplication`` from them).
    """
    problems: list[str] = []
    objective = result.consumption.combined(weights)
    digest = placement_digest(result.scheme.remote_functions)
    if reference is not None:
        if digest != reference["digest"]:
            problems.append(f"placement digest {digest[:12]} != reference {reference['digest'][:12]}")
        if not close(objective, reference["objective"]):
            problems.append(f"objective {objective!r} != reference {reference['objective']!r}")

    # Users sharing a plan share one application: evaluation reads only
    # part weights, never the user id.
    by_plan: dict[int, PartitionedApplication] = {}
    apps: dict[str, PartitionedApplication] = {}
    for user in workload.system.users:
        plan = result.user_plans[user.user_id]
        app = by_plan.get(id(plan))
        if app is None:
            try:
                app = PartitionedApplication(user.user_id, user.call_graph, plan.parts)
            except ValueError as exc:
                problems.append(f"parts of {user.user_id} are not a valid partition: {exc}")
                return problems
            by_plan[id(plan)] = app
        apps[user.user_id] = app

    remote_parts = result.greedy.remote_parts
    for user_id, app in apps.items():
        parts = remote_parts.get(user_id, set())
        expected = {f for part in app.parts if part.part_id in parts for f in part.functions}
        if expected != result.scheme.remote_for(user_id):
            problems.append(f"scheme of {user_id} differs from its remote parts")
            break

    replayed = workload.system.evaluate_placement(apps, remote_parts)
    if not close(replayed.combined(weights), objective):
        problems.append(
            f"evaluate_placement gives {replayed.combined(weights)!r}, plan reports {objective!r}"
        )
    for user_id, reported in result.consumption.per_user.items():
        again = replayed.per_user[user_id]
        if not (close(again.energy, reported.energy) and close(again.time, reported.time)):
            problems.append(f"consumption of {user_id} is not reproduced by evaluate_placement")
            break
    return problems
