"""Which public entry points the traced run wraps, and under which names.

Layer names follow the ``src/repro`` modules.  Each entry rebinds the
name where the calling layer looks it up, so the program runs unchanged
apart from the recorded spans.  :func:`install` is used in-process by the
plan workloads and by ``serve_traced.py`` inside the server process.
"""

from __future__ import annotations

import time
from typing import Any

from spans import Patches, Tracer

PLAN_SYSTEM = "core.planner.plan_system"
SERVE = "service.serve"

LAYER_SPANS = (
    "service.fingerprint",
    "core.planner.plan_user",
    "compression.compress",
    "spectral.cut",
    "mec.scheme.app_build",
    "mec.greedy",
    "mec.system.evaluate_placement",
    "service.http.parse",
    "service.http.encode",
)
"""Spans whose self time the ledger attributes to a layer.  The root
spans (``plan_system`` and ``service.serve``) are not layers: their self
time is the ledger's ``other.s``."""


PER_LAYER_NAMES = (
    "service.fingerprint.calls",
    "service.fingerprint.s",
    "mec.scheme.app_build.calls",
    "mec.scheme.app_build.s",
    "mec.greedy.s",
    "mec.greedy.moves",
    "mec.greedy.s_per_move",
    "mec.greedy.contention_rounds",
    "mec.system.evaluate_placement.calls",
    "mec.system.evaluate_placement.s",
    "core.planner.plan_user.calls",
    "core.planner.plan_user.s",
    "compression.compress.calls",
    "compression.compress.s",
    "compression.rounds",
    "compression.node_ratio",
    "spectral.cut.calls",
    "spectral.cut.s",
    "service.http.parse.calls",
    "service.http.parse.s",
    "service.http.encode.calls",
    "service.http.encode.s",
    "service.plan_cache.hits",
    "service.plan_cache.misses",
    "service.plan_cache.hit_ratio",
    "service.queue.wait_p50_ms",
    "service.queue.wait_p95_ms",
    "service.queue.coalesced",
    "service.queue.shed",
    "service.busy_s",
    "serve.hit_p50_ms",
    "serve.hit_tail_ms",
    "serve.hit_tail_pct",
    "serve.cold_p50_ms",
    "serve.cold_tail_ms",
    "serve.cold_tail_pct",
    "serve.max_rate_rps",
    "serve.saturated_rps",
    "loadgen.lag_p99_ms",
    "other.s",
    "trace.wall_s",
    "trace.coverage",
    "trace.overhead_ratio",
    "fail_ratio",
)
"""Every per-layer metric a traced run prints; layers a workload does not
exercise read 0."""


def empty_layer_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_NAMES}


def install(tracer: Tracer) -> Patches:
    """Wrap every benchmarked entry point; returns the undo handle."""
    import repro.core.planner as planner_mod
    import repro.service.fingerprint as fingerprint_mod
    import repro.service.http as http_mod
    import repro.service.server as server_mod
    from repro.compression.compressor import GraphCompressor
    from repro.mec.system import MECSystem
    from repro.service.batching import QueueFullError, RequestQueue
    from repro.service.plan_cache import PlanCache

    patches = Patches()
    Planner = planner_mod.OffloadingPlanner

    def result_key(args: tuple, result: Any) -> str | None:
        return result if isinstance(result, str) else None

    fingerprint = tracer.wrap(
        fingerprint_mod.request_fingerprint, "service.fingerprint", key=result_key
    )
    # plan_system imports request_fingerprint lazily from its module; the
    # service bound it at import time.
    patches.rebind(fingerprint_mod, "request_fingerprint", fingerprint)
    patches.rebind(server_mod, "request_fingerprint", fingerprint)

    patches.rebind(Planner, "plan_system", tracer.wrap(Planner.plan_system, PLAN_SYSTEM))
    patches.rebind(
        Planner, "plan_user", tracer.wrap(Planner.plan_user, "core.planner.plan_user")
    )

    original_init = Planner.__init__

    def planner_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        self.cut_strategy = tracer.wrap(self.cut_strategy, "spectral.cut")

    patches.rebind(Planner, "__init__", planner_init)

    def after_compress(t: Tracer, args: tuple, result: Any) -> None:
        t.count("compression.rounds", result.rounds_total)
        t.count("compression.nodes_in", args[1].node_count)
        t.count("compression.nodes_out", result.compressed.graph.node_count)

    patches.rebind(
        GraphCompressor,
        "compress",
        tracer.wrap(GraphCompressor.compress, "compression.compress", after=after_compress),
    )
    patches.rebind(
        planner_mod,
        "PartitionedApplication",
        tracer.wrap(planner_mod.PartitionedApplication, "mec.scheme.app_build"),
    )

    def after_greedy(t: Tracer, args: tuple, result: Any) -> None:
        t.count("mec.greedy.moves", len(result.moves))
        t.count("mec.greedy.contention_rounds", result.contention_rounds)

    patches.rebind(
        planner_mod,
        "generate_offloading_scheme",
        tracer.wrap(planner_mod.generate_offloading_scheme, "mec.greedy", after=after_greedy),
    )
    patches.rebind(
        MECSystem,
        "evaluate_placement",
        tracer.wrap(MECSystem.evaluate_placement, "mec.system.evaluate_placement"),
    )

    # ---- serving path -------------------------------------------------
    patches.rebind(
        http_mod,
        "parse_graph_payload",
        tracer.wrap(http_mod.parse_graph_payload, "service.http.parse"),
    )
    patches.rebind(
        http_mod, "plan_to_dict", tracer.wrap(http_mod.plan_to_dict, "service.http.encode")
    )
    patches.rebind(
        server_mod.PlanService,
        "_serve_flight",
        tracer.wrap(
            server_mod.PlanService._serve_flight,
            SERVE,
            key=lambda args, result: args[1].key,
        ),
    )

    def after_cache_get(t: Tracer, args: tuple, result: Any) -> None:
        t.count("service.plan_cache.hits" if result is not None else "service.plan_cache.misses")

    patches.rebind(PlanCache, "get", tracer.wrap(PlanCache.get, None, after=after_cache_get))

    def after_submit(t: Tracer, args: tuple, result: Any) -> None:
        _, created = result
        if not created:
            t.count("service.queue.coalesced")

    def submit_error(t: Tracer, exc: BaseException) -> None:
        if isinstance(exc, QueueFullError):
            t.count("service.queue.shed")

    patches.rebind(
        RequestQueue,
        "submit",
        tracer.wrap(RequestQueue.submit, None, after=after_submit, on_error=submit_error),
    )

    def after_next_batch(t: Tracer, args: tuple, batch: Any) -> None:
        picked = time.perf_counter()
        for flight in batch:
            for request in flight.requests:
                t.sample("service.queue.wait_s", picked - request.submitted_at)

    patches.rebind(
        RequestQueue,
        "next_batch",
        tracer.wrap(RequestQueue.next_batch, None, after=after_next_batch),
    )
    return patches
