"""The plan service: worker pool, shedding, validation, timeout/retry.

:class:`PlanService` turns an :class:`~repro.core.planner.OffloadingPlanner`
into a long-lived request processor:

* callers ``submit`` call graphs and receive :class:`PlanTicket` handles;
* a thread pool drains the request queue in batches; within and across
  batches, identical apps (by content fingerprint) are planned once
  (single-flight) and served from the LRU plan cache afterwards;
* the queue depth is bounded — overflow requests are *shed* with a
  structured :class:`ServiceError` rather than queued without limit;
* graphs failing :func:`repro.graphs.validation.check_graph_invariants`
  come back as structured ``invalid-graph`` errors instead of killing a
  worker thread;
* a planner crash is retried once (transient faults: the spectral solver
  is iterative); the second failure returns an ``internal`` error.

Everything observable is recorded in a :class:`MetricsRegistry` —
request latency, per-stage planner time, queue depth, hit rate, shed and
error counts — rendered by ``python -m repro serve-bench``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.callgraph.model import FunctionCallGraph
from repro.core.planner import OffloadingPlanner
from repro.core.results import UserPlan
from repro.graphs.validation import check_graph_invariants
from repro.service.batching import Flight, PlanRequest, QueueFullError, RequestQueue
from repro.service.executor import EXECUTOR_MODES, PlanningBackend
from repro.service.fingerprint import request_fingerprint
from repro.service.metrics import MetricsRegistry
from repro.service.plan_cache import PlanCache


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (planning knobs live in PlannerConfig)."""

    workers: int = 2
    """Worker threads draining the queue.  With the default ``thread``
    executor planning runs inline on these threads (pure Python, so the
    GIL caps speed-up; the pool's job is isolation and batching); with
    ``executor="process"`` they dispatch planning to the process pool."""

    executor: str = "thread"
    """Where planning runs: ``"thread"`` (inline on the worker thread)
    or ``"process"`` (a multiprocessing pool of ``workers`` processes,
    so throughput scales with cores).  Plans are identical either way —
    planning is deterministic."""

    max_queue_depth: int = 128
    """Bound on unresolved *distinct* flights; beyond it, load-shed."""

    max_batch: int = 16
    """Flights a worker drains per wakeup; identical apps inside one
    batch were already coalesced at submission."""

    request_timeout: float = 30.0
    """Default seconds a caller waits in :meth:`PlanTicket.result`."""

    retries: int = 1
    """Extra planner attempts after a crash before giving up."""

    cache_capacity: int = 256
    """LRU plan-cache entries."""

    spill_path: str | None = None
    """Optional JSON file: loaded on start, written on close, so caches
    survive restarts."""

    validate_graphs: bool = True
    """Run structural invariant checks before planning."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_MODES}"
            )


@dataclass(frozen=True)
class ServiceError:
    """Structured request failure (the service never raises at callers)."""

    code: str
    """One of ``shed``, ``invalid-graph``, ``timeout``, ``internal``,
    ``closed``."""

    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


@dataclass
class PlanResponse:
    """Outcome of one plan request."""

    request_id: int
    key: str
    plan: UserPlan | None = None
    error: ServiceError | None = None
    cached: bool = False
    """Whether the plan came from the LRU cache (coalesced single-flight
    followers of a cold plan report ``cached=False`` — the plan was
    computed for their flight)."""

    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.plan is not None


class PlanTicket:
    """Caller-side handle for a submitted request."""

    def __init__(self, request: PlanRequest, flight: Flight, service: "PlanService") -> None:
        self._request = request
        self._flight = flight
        self._service = service
        self._response: PlanResponse | None = None

    @property
    def request_id(self) -> int:
        return self._request.request_id

    @property
    def key(self) -> str:
        return self._request.key

    @property
    def done(self) -> bool:
        """Whether the flight has settled (poll without blocking)."""
        return self._flight.done

    def result(self, timeout: float | None = None) -> PlanResponse:
        """Wait for the outcome (default timeout from the service config).

        A timeout produces a structured ``timeout`` error response; the
        flight keeps running and later callers of the same fingerprint
        can still hit its cached result.  The first settled outcome is
        memoized so repeated calls neither re-wait nor re-count metrics.
        """
        if self._response is not None:
            return self._response
        if timeout is None:
            timeout = self._service.config.request_timeout
        shared = self._flight.wait(timeout)
        if shared is None:
            self._service.metrics.counter("requests_timeout").inc()
            return PlanResponse(
                request_id=self._request.request_id,
                key=self._request.key,
                error=ServiceError("timeout", f"no plan within {timeout:.3f}s"),
                latency_seconds=time.perf_counter() - self._request.submitted_at,
            )
        self._response = self._service._individualize(self._request, shared)
        return self._response


class _ShedFlight(Flight):
    """A pre-resolved flight used for refused (shed/closed) requests."""

    def __init__(self, key: str, response: PlanResponse) -> None:
        super().__init__(key)
        self.resolve(response)


class PlanService:
    """Long-lived plan-serving front-end over an :class:`OffloadingPlanner`.

    Use as a context manager (or call :meth:`start` / :meth:`close`)::

        with PlanService(make_planner("spectral")) as service:
            ticket = service.submit(call_graph)
            response = ticket.result()
    """

    def __init__(
        self,
        planner: OffloadingPlanner,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        cache: PlanCache | None = None,
    ) -> None:
        self.planner = planner
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.cache = cache or PlanCache(
            capacity=self.config.cache_capacity, spill_path=self.config.spill_path
        )
        self.queue = RequestQueue(max_depth=self.config.max_queue_depth)
        self.backend = PlanningBackend(
            executor=self.config.executor,
            strategy_name=planner.strategy_name,
            config=planner.config,
            processes=self.config.workers,
        )
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self._invocations = 0
        self._invocation_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PlanService":
        """Load any spilled cache and launch the worker pool (idempotent)."""
        if self._started:
            return self
        if self.config.spill_path is not None:
            loaded = self.cache.load()
            if loaded:
                self.metrics.counter("cache_entries_loaded").inc(loaded)
        # The process pool (if any) must fork before the worker threads
        # start: forking a multi-threaded process risks inheriting locks
        # in undefined states.
        self.backend.start()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"plan-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        self.metrics.gauge("worker_pool_size").set(self.config.workers)
        self._started = True
        return self

    def close(self) -> None:
        """Drain-free shutdown: refuse new work, join workers, spill cache."""
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.backend.close()
        if self.config.spill_path is not None:
            self.cache.save()

    def __enter__(self) -> "PlanService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, graph: FunctionCallGraph) -> PlanTicket:
        """Enqueue a plan request for *graph*; never raises for load.

        Overflow (bounded queue) and post-close submissions resolve
        immediately to structured ``shed``/``closed`` error responses.
        """
        if not self._started:
            self.start()
        now = time.perf_counter()
        key = self._key_for(graph)
        request = PlanRequest(graph=graph, key=key, submitted_at=now)
        self.metrics.counter("requests_total").inc()

        if self._closed:
            return self._refused(request, ServiceError("closed", "service is shut down"))
        try:
            flight, created = self.queue.submit(request)
        except QueueFullError as exc:
            self.metrics.counter("requests_shed").inc()
            return self._refused(request, ServiceError("shed", str(exc)))
        except RuntimeError as exc:  # closed between the check and submit
            return self._refused(request, ServiceError("closed", str(exc)))
        if not created:
            self.metrics.counter("requests_coalesced").inc()
        self.metrics.gauge("queue_depth").set(self.queue.depth)
        return PlanTicket(request, flight, self)

    def plan(self, graph: FunctionCallGraph, timeout: float | None = None) -> PlanResponse:
        """Submit and wait — the synchronous convenience path."""
        return self.submit(graph).result(timeout)

    def _refused(self, request: PlanRequest, error: ServiceError) -> PlanTicket:
        response = PlanResponse(request_id=request.request_id, key=request.key, error=error)
        return PlanTicket(request, _ShedFlight(request.key, response), self)

    def _key_for(self, graph: FunctionCallGraph) -> str:
        return request_fingerprint(graph, self.planner.config, self.planner.strategy_name)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch(max_batch=self.config.max_batch, timeout=0.5)
            if not batch:
                if self.queue.closed:
                    return
                continue
            self.metrics.histogram("batch_size").observe(len(batch))
            if self.backend.pooled and len(batch) > 1:
                self._serve_batch(batch)
            else:
                for flight in batch:
                    self._serve_flight(flight)
            self.metrics.gauge("queue_depth").set(self.queue.depth)

    def _serve_flight(self, flight: Flight) -> None:
        """Plan one flight; every failure mode becomes a structured result."""
        started = time.perf_counter()
        error: ServiceError | None = None
        plan = self.cache.get(flight.key)
        cached = plan is not None
        if plan is None:
            plan, error = self._plan_guarded(flight.requests[0].graph)
        self._finish_flight(flight, plan, error, cached, started)

    def _serve_batch(self, batch: list[Flight]) -> None:
        """Plan a drained batch through the pooled backend in one pipeline.

        Cache hits and invalid graphs settle immediately; the remaining
        cold flights ship as a single sequence-numbered batch, so one
        IPC pipeline carries the whole drain instead of one round-trip
        per flight.  A per-graph batch failure falls back to the guarded
        single-plan path, which owns the retry budget (the batch attempt
        counts as the first try).  Thread-mode never reaches here: a
        batch barrier would delay early flights for no throughput gain.
        """
        started = time.perf_counter()
        cold: list[Flight] = []
        for flight in batch:
            plan = self.cache.get(flight.key)
            if plan is not None:
                self._finish_flight(flight, plan, None, True, started)
                continue
            invalid = self._validate(flight.requests[0].graph)
            if invalid is not None:
                self._finish_flight(flight, None, invalid, False, started)
                continue
            cold.append(flight)
        if not cold:
            return
        if len(cold) == 1:
            flight = cold[0]
            plan, error = self._plan_guarded(flight.requests[0].graph, validated=True)
            self._finish_flight(flight, plan, error, False, started)
            return
        graphs = [flight.requests[0].graph for flight in cold]
        with self._invocation_lock:
            self._invocations += len(graphs)
        settled = self.backend.plan_many_settled(self.planner, graphs)
        for flight, (plan, exc) in zip(cold, settled):
            error = None
            if plan is None:
                if self.config.retries > 0:
                    self.metrics.counter("planner_retries").inc()
                    plan, error = self._plan_guarded(
                        flight.requests[0].graph, validated=True, attempts_used=1
                    )
                else:
                    error = ServiceError(
                        "internal", f"{type(exc).__name__}: {exc}" if exc else "planner failed"
                    )
            self._finish_flight(flight, plan, error, False, started)

    def _finish_flight(
        self,
        flight: Flight,
        plan: UserPlan | None,
        error: ServiceError | None,
        cached: bool,
        started: float,
    ) -> None:
        """Publish one flight's outcome: cache, metrics, resolve, dequeue."""
        if plan is not None and not cached:
            self.cache.put(flight.key, plan)
            # Only a fresh plan is a stage sample: a hit carries the timings
            # of the plan it was cached from.
            for stage, seconds in plan.stage_seconds.items():
                self.metrics.histogram(f"stage_{stage}_seconds").observe(seconds)
        if error is not None:
            self.metrics.counter("requests_errored").inc()
            self.metrics.counter(f"errors_{error.code}").inc()
        self.metrics.histogram("service_seconds").observe(time.perf_counter() - started)
        flight.resolve(
            PlanResponse(
                request_id=flight.requests[0].request_id,
                key=flight.key,
                plan=plan,
                error=error,
                cached=cached,
            )
        )
        self.queue.mark_resolved(flight)

    def _validate(self, graph: FunctionCallGraph) -> ServiceError | None:
        """Structural invariant check, as a structured error."""
        if not self.config.validate_graphs:
            return None
        try:
            check_graph_invariants(graph.graph)
        except AssertionError as exc:
            self.metrics.counter("requests_shed").inc()
            return ServiceError("invalid-graph", str(exc))
        return None

    def _plan_guarded(
        self,
        graph: FunctionCallGraph,
        validated: bool = False,
        attempts_used: int = 0,
    ) -> tuple[UserPlan | None, ServiceError | None]:
        if not validated:
            invalid = self._validate(graph)
            if invalid is not None:
                return None, invalid
        attempts = max(1, 1 + self.config.retries - attempts_used)
        last_error = "planner failed"
        for attempt in range(attempts):
            try:
                with self._invocation_lock:
                    self._invocations += 1
                return self.backend.plan(self.planner, graph), None
            except Exception as exc:  # noqa: BLE001 - worker must not die
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt + 1 < attempts:
                    self.metrics.counter("planner_retries").inc()
        return None, ServiceError("internal", last_error)

    def _individualize(self, request: PlanRequest, shared: PlanResponse) -> PlanResponse:
        """Stamp the shared flight outcome with this request's identity."""
        latency = time.perf_counter() - request.submitted_at
        self.metrics.histogram("request_latency_seconds").observe(latency)
        if shared.ok:
            self.metrics.counter("requests_ok").inc()
        return PlanResponse(
            request_id=request.request_id,
            key=request.key,
            plan=shared.plan,
            error=shared.error,
            cached=shared.cached,
            latency_seconds=latency,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def planner_invocations(self) -> int:
        """How many times the underlying planner actually ran."""
        with self._invocation_lock:
            return self._invocations

    def metrics_report(self) -> str:
        """The plain-text metrics report plus cache summary lines."""
        stats = self.cache.stats()
        lines = [
            self.metrics.render_report(),
            "",
            (
                f"plan cache: {stats.size}/{stats.capacity} entries, "
                f"hit rate {stats.hit_rate:.3f} "
                f"({stats.hits} hits / {stats.misses} misses, "
                f"{stats.evictions} evictions)"
            ),
            f"planner invocations: {self.planner_invocations}",
        ]
        return "\n".join(lines)
