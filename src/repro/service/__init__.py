"""Plan-serving subsystem: the planner as a long-lived service.

The paper (and the rest of this repo) plans a workload in one shot.  A
production edge deployment instead sees a *stream* of plan requests —
millions of users running a handful of popular applications — and
replanning each arrival from scratch wastes exactly the work this
package exists to share.  Four pieces compose into :class:`PlanService`:

* :mod:`repro.service.fingerprint` — content-addressed identity for
  (call graph, planner config) pairs, stable across object identity,
  insertion order and processes;
* :mod:`repro.service.plan_cache` — an LRU cache of finished
  :class:`~repro.core.results.UserPlan` objects keyed by fingerprint,
  with JSON spill so caches survive restarts;
* :mod:`repro.service.batching` — a bounded request queue that
  coalesces duplicate in-flight requests (single-flight) and drains
  arrivals in batches;
* :mod:`repro.service.server` — the worker pool, load shedding,
  timeout/retry and validation glue;
* :mod:`repro.service.executor` — the planning execution backend:
  in-thread (default) or a multiprocessing pool so plan throughput
  scales with cores;
* :mod:`repro.service.metrics` — counters/gauges/histograms rendered
  as a plain-text report (``python -m repro serve-bench`` prints it).
"""

from repro.service.batching import PlanRequest, QueueFullError, RequestQueue
from repro.service.executor import (
    EXECUTOR_MODES,
    PlanningBackend,
    process_pool_supported,
)
from repro.service.fingerprint import (
    FingerprintError,
    config_fingerprint,
    graph_fingerprint,
    request_fingerprint,
)
from repro.service.http import (
    HttpFrontend,
    HttpFrontendThread,
    PayloadError,
    graph_to_payload,
    make_fastapi_app,
    parse_graph_payload,
    response_to_dict,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.plan_cache import (
    PlanCache,
    plan_digest,
    plan_from_dict,
    plan_to_dict,
)
from repro.service.shm import (
    GraphRef,
    SegmentLostError,
    SharedGraphStore,
    decode_call_graph,
    encode_call_graph,
)
from repro.service.server import (
    PlanResponse,
    PlanService,
    PlanTicket,
    ServiceConfig,
    ServiceError,
)

__all__ = [
    "FingerprintError",
    "graph_fingerprint",
    "config_fingerprint",
    "request_fingerprint",
    "PlanCache",
    "plan_to_dict",
    "plan_from_dict",
    "plan_digest",
    "PlanRequest",
    "RequestQueue",
    "QueueFullError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanService",
    "PlanTicket",
    "PlanResponse",
    "ServiceConfig",
    "ServiceError",
    "EXECUTOR_MODES",
    "PlanningBackend",
    "process_pool_supported",
    "HttpFrontend",
    "HttpFrontendThread",
    "PayloadError",
    "graph_to_payload",
    "make_fastapi_app",
    "parse_graph_payload",
    "response_to_dict",
    "GraphRef",
    "SegmentLostError",
    "SharedGraphStore",
    "decode_call_graph",
    "encode_call_graph",
]
