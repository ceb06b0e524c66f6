"""Zero-copy transfer, batched submission, and the HTTP serving surface.

Covers the serving-layer perf work end to end:

* the shared-memory codec and :class:`SharedGraphStore` lifecycle
  (round-trip fidelity, LRU eviction, unlink-on-close, inline fallback);
* thread vs warm-process bit-parity through the zero-copy pipeline,
  including worker recycling (``maxtasksperchild``) and concurrent
  multi-thread submitters;
* :class:`PlanningBackend` semantics — batches racing ``close()`` still
  settle, single plans go through the pool, chunksizes are bounded;
* the HTTP frontend round-tripping real plans over a socket.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from multiprocessing import shared_memory

import pytest

from repro.callgraph.model import FunctionCallGraph
from repro.core import make_planner
from repro.service import (
    HttpFrontendThread,
    PayloadError,
    PlanService,
    PlanningBackend,
    SegmentLostError,
    ServiceConfig,
    SharedGraphStore,
    decode_call_graph,
    encode_call_graph,
    graph_fingerprint,
    graph_to_payload,
    parse_graph_payload,
    plan_digest,
)
from repro.service.executor import _MAX_CHUNKSIZE, _chunksize
from repro.service.shm import GraphRef, resolve_ref


def _random_call_graph(seed: int, app_name: str = "zc") -> FunctionCallGraph:
    """Random call graph with varied weights, components, and pins."""
    rng = random.Random(seed)
    n = rng.randint(5, 16)
    fcg = FunctionCallGraph(app_name)
    names = [f"f{i}" for i in range(n)]
    for name in names:
        fcg.add_function(
            name,
            computation=round(rng.uniform(1.0, 50.0), 3),
            component=rng.choice(["main", "aux"]),
            offloadable=rng.random() > 0.2,
        )
    for i in range(1, n):
        j = rng.randrange(i)
        fcg.add_data_flow(names[i], names[j], round(rng.uniform(0.5, 20.0), 3))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        if not fcg.graph.has_edge(u, v):
            fcg.add_data_flow(u, v, round(rng.uniform(0.5, 20.0), 3))
    return fcg


class TestSharedMemoryCodec:
    def test_round_trip_preserves_content_and_fingerprint(self):
        for seed in range(8):
            original = _random_call_graph(seed)
            rebuilt = decode_call_graph(encode_call_graph(original))
            assert rebuilt.app_name == original.app_name
            assert list(rebuilt.functions()) == list(original.functions())
            for name in original.functions():
                assert rebuilt.info(name) == original.info(name)
            assert list(rebuilt.graph.edges()) == list(original.graph.edges())
            assert graph_fingerprint(rebuilt) == graph_fingerprint(original)

    def test_decode_accepts_memoryview(self):
        original = _random_call_graph(3)
        blob = encode_call_graph(original)
        rebuilt = decode_call_graph(memoryview(blob))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(original)


class TestSharedGraphStore:
    def test_publish_reuses_segment_for_same_content(self):
        with SharedGraphStore(capacity=4) as store:
            first = store.publish(_random_call_graph(1))
            second = store.publish(_random_call_graph(1))
            assert first.segment == second.segment
            assert store.publishes == 1
            assert store.reuses == 1
            assert store.live_segments == 1

    def test_lru_eviction_unlinks_oldest_segment(self):
        with SharedGraphStore(capacity=2) as store:
            refs = [store.publish(_random_call_graph(seed)) for seed in range(3)]
            assert store.evictions == 1
            assert store.live_segments == 2
            # The evicted (oldest) segment is gone from /dev/shm ...
            with pytest.raises(SegmentLostError):
                resolve_ref(refs[0])
            # ... and the retry path ships the graph inline instead.
            inline = store.inline_ref(_random_call_graph(0))
            assert inline.payload is not None
            rebuilt = resolve_ref(inline)
            assert graph_fingerprint(rebuilt) == refs[0].key

    def test_close_unlinks_every_segment(self):
        store = SharedGraphStore(capacity=4)
        ref = store.publish(_random_call_graph(5))
        assert ref.segment is not None
        store.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment).close()
        store.close()  # idempotent
        assert store.live_segments == 0

    def test_resolve_ref_round_trips_through_shared_memory(self):
        with SharedGraphStore(capacity=4) as store:
            original = _random_call_graph(7)
            rebuilt = resolve_ref(store.publish(original))
            assert graph_fingerprint(rebuilt) == graph_fingerprint(original)
            assert list(rebuilt.graph.edges()) == list(original.graph.edges())

    def test_ref_without_segment_or_payload_rejected(self):
        with pytest.raises(ValueError):
            resolve_ref(GraphRef(key="deadbeef", size=0))


class TestZeroCopyExecutorParity:
    def _digests(self, backend: PlanningBackend, graphs) -> list[str]:
        planner = make_planner("spectral")
        with backend:
            backend.start()
            return [plan_digest(plan) for plan in backend.plan_many(planner, graphs)]

    def test_process_plans_bit_identical_to_thread(self):
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(8)]
        thread = self._digests(PlanningBackend(executor="thread"), graphs)
        process = self._digests(PlanningBackend(executor="process", processes=2), graphs)
        assert thread == process

    def test_worker_recycling_preserves_parity(self):
        # maxtasksperchild=1 forks a fresh worker per task: the planner
        # and segment decode cache rebuild every time, and plans must
        # still be bit-identical.
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(6)]
        thread = self._digests(PlanningBackend(executor="thread"), graphs)
        recycled = self._digests(
            PlanningBackend(executor="process", processes=2, maxtasksperchild=1), graphs
        )
        assert thread == recycled

    def test_concurrent_submitters_all_get_identical_plans(self):
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(5)]
        planner = make_planner("spectral")
        expected = [plan_digest(planner.plan_user(graph)) for graph in graphs]
        results: dict[int, list[str]] = {}
        errors: list[Exception] = []
        with PlanningBackend(executor="process", processes=2) as backend:
            backend.start()

            def submit(worker_index: int) -> None:
                try:
                    plans = backend.plan_many(planner, graphs)
                    results[worker_index] = [plan_digest(plan) for plan in plans]
                except Exception as exc:  # surfaced below: the test thread
                    errors.append(exc)  # re-raises collected failures

            threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert all(digests == expected for digests in results.values())

    def test_singleton_plans_go_through_the_pool(self):
        graph = _random_call_graph(9)
        planner = make_planner("spectral")
        with PlanningBackend(executor="process", processes=2) as backend:
            backend.start()
            assert backend.store is not None
            plan = backend.plan(planner, graph)
            # The single-graph path published through the store (pool
            # pipeline), not an in-thread fallback.
            assert backend.store.publishes + backend.store.inline_fallbacks >= 1
        assert plan_digest(plan) == plan_digest(planner.plan_user(graph))

    def test_inflight_batch_survives_close(self):
        # close() must drain, not terminate: a batch submitted just
        # before close still settles with correct plans.
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(6)]
        planner = make_planner("spectral")
        expected = [plan_digest(planner.plan_user(graph)) for graph in graphs]
        backend = PlanningBackend(executor="process", processes=2)
        backend.start()
        outcome: dict[str, object] = {}

        def submit() -> None:
            try:
                outcome["digests"] = [
                    plan_digest(plan) for plan in backend.plan_many(planner, graphs)
                ]
            except Exception as exc:  # surfaced below via the outcome dict
                outcome["error"] = exc

        submitter = threading.Thread(target=submit)
        submitter.start()
        time.sleep(0.05)  # let the batch reach the pool
        backend.close()
        submitter.join(timeout=120)
        assert not submitter.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["digests"] == expected

    def test_chunksize_bounded_both_ways(self):
        assert _chunksize(0, 4) == 1
        assert _chunksize(1, 4) == 1
        assert _chunksize(16, 4) == 1
        assert _chunksize(64, 4) == 4
        assert _chunksize(10_000, 4) == _MAX_CHUNKSIZE
        assert _chunksize(8, 0) == 2  # worker floor of 1


def _two_function_payload(
    computation: float = 1.0, flow: tuple[str, str, float] = ("a", "b", 1.0)
) -> dict:
    return {
        "app_name": "bad",
        "functions": [
            {"name": "a", "computation": computation},
            {"name": "b", "computation": 1.0},
        ],
        "data_flows": [list(flow)],
    }


INVALID_GRAPH_PAYLOADS = {
    "negative-computation": _two_function_payload(computation=-1.0),
    "zero-amount": _two_function_payload(flow=("a", "b", 0.0)),
    "negative-amount": _two_function_payload(flow=("a", "b", -2.5)),
    "self-loop": _two_function_payload(flow=("a", "a", 1.0)),
    "nan-computation": _two_function_payload(computation=float("nan")),
    "infinite-computation": _two_function_payload(computation=float("inf")),
    "nan-amount": _two_function_payload(flow=("a", "b", float("nan"))),
    "infinite-amount": _two_function_payload(flow=("a", "b", float("inf"))),
}
"""Well-formed JSON (``json.dumps`` writes ``NaN``/``Infinity`` tokens)
describing a graph that is structurally invalid."""


class TestHttpFrontend:
    def _get(self, port: int, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=30.0
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def _post(self, port: int, path: str, payload: object) -> tuple[int, dict]:
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def test_plan_round_trip_matches_direct_service_call(self):
        graph = _random_call_graph(21)
        config = ServiceConfig(workers=2)
        with PlanService(make_planner("spectral"), config) as service:
            direct = service.plan(graph)
            frontend = HttpFrontendThread(service)
            with frontend:
                port = frontend.start()
                status, body = self._post(port, "/plan", graph_to_payload(graph))
        assert status == 200
        assert body["ok"] is True
        assert body["key"] == direct.key
        assert body["plan_digest"] == plan_digest(direct.plan)

    def test_submit_then_poll_result(self):
        graph = _random_call_graph(22)
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=2)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            status, body = self._post(port, "/submit", graph_to_payload(graph))
            assert status == 202
            request_id = body["request_id"]
            deadline = time.monotonic() + 60.0
            while True:
                status, result = self._post_free_get(port, f"/result/{request_id}")
                if status == 200:
                    break
                assert status == 202
                assert time.monotonic() < deadline
                time.sleep(0.02)
        assert result["ok"] is True
        assert result["plan"]["app_name"] == graph.app_name

    def _post_free_get(self, port: int, path: str) -> tuple[int, dict]:
        status, raw = self._get(port, path)
        return status, json.loads(raw.decode("utf-8"))

    def test_health_metrics_and_error_paths(self):
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            status, body = self._get(port, "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            status, body = self._post(port, "/plan", {"functions": "nope"})
            assert status == 400
            assert body["error"]["code"] == "invalid-graph"

            status, body = self._post_free_get(port, "/result/999999")
            assert status == 404

            status, raw = self._get(port, "/metrics")
            assert status == 200
            assert b"worker_pool_size" in raw and b"plan cache" in raw

    @pytest.mark.parametrize(
        "payload", INVALID_GRAPH_PAYLOADS.values(), ids=INVALID_GRAPH_PAYLOADS.keys()
    )
    def test_invalid_graph_answers_400(self, payload):
        # Rejected at parse time, before any planner or service check.
        with pytest.raises(PayloadError):
            parse_graph_payload(json.loads(json.dumps(payload)))
        with (
            PlanService(make_planner("spectral"), ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            status, body = self._post(port, "/plan", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-graph"

    def test_loop_stays_responsive_during_slow_plan(self):
        # Regression guard for the async-safety fixes: the blocking
        # submit/result path runs on the executor, so a slow plan must
        # not stall the event loop — concurrent /healthz probes keep
        # answering promptly while the plan is in flight.
        planner = make_planner("spectral")
        inner = planner.plan_user

        def slowed(graph):
            time.sleep(1.0)
            return inner(graph)

        planner.plan_user = slowed
        graph = _random_call_graph(31)
        with (
            PlanService(planner, ServiceConfig(workers=1)) as service,
            HttpFrontendThread(service) as frontend,
        ):
            port = frontend.start()
            outcome: dict[str, object] = {}

            def slow_post() -> None:
                outcome["plan"] = self._post(port, "/plan", graph_to_payload(graph))

            poster = threading.Thread(target=slow_post)
            poster.start()
            time.sleep(0.15)  # let the slow plan get in flight
            latencies = []
            while poster.is_alive() and len(latencies) < 5:
                probe_started = time.monotonic()
                status, body = self._get(port, "/healthz")
                latencies.append(time.monotonic() - probe_started)
                assert status == 200 and json.loads(body)["status"] == "ok"
            poster.join(timeout=30.0)
            assert not poster.is_alive()

        status, body = outcome["plan"]
        assert status == 200 and body["ok"] is True
        assert latencies, "healthz probes must overlap the in-flight plan"
        assert max(latencies) < 0.5, f"event loop stalled during plan: {latencies}"

    def test_parse_payload_round_trips_fingerprint(self):
        for seed in range(5):
            graph = _random_call_graph(seed)
            rebuilt = parse_graph_payload(graph_to_payload(graph))
            assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
