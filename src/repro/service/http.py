"""Asyncio HTTP frontend over :class:`~repro.service.server.PlanService`.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no web framework required — exposing the plan service over four routes:

* ``POST /plan``     — submit a call graph and wait for the plan;
* ``POST /submit``   — submit and return a ticket (``request_id``)
  immediately;
* ``GET /result/<request_id>`` — poll a ticket (``202`` while pending);
* ``GET /metrics`` / ``GET /healthz`` — observability endpoints.

Request and response bodies are JSON.  A call graph is::

    {"app_name": "demo",
     "functions": [{"name": "main", "computation": 1.0,
                    "component": "main", "offloadable": false}, ...],
     "data_flows": [["main", "fft", 10.0], ...]}

The asyncio loop only parses requests and shuttles bytes; the blocking
waits (``PlanTicket.result``) run on the loop's default thread-pool
executor, so slow plans never stall other connections.  When FastAPI is
installed, :func:`make_fastapi_app` builds an equivalent ASGI app over
the same service; it is entirely optional and nothing here imports it.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from collections import OrderedDict
from typing import Any

from repro.callgraph.model import FunctionCallGraph
from repro.service.plan_cache import plan_digest, plan_to_dict
from repro.service.server import PlanResponse, PlanService, PlanTicket

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_TICKETS = 1024
_JSON = "application/json"


class PayloadError(ValueError):
    """A request body that does not describe a valid call graph."""


def _finite_number(value: Any) -> float | None:
    """*value* as a finite float, or ``None`` if it is not a finite number.

    ``json.loads`` accepts the ``NaN`` and ``Infinity`` tokens, and a NaN
    weight slips past every ``< 0`` check downstream, so non-finite
    numbers must be rejected by the parser.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


def parse_graph_payload(payload: Any) -> FunctionCallGraph:
    """Build a :class:`FunctionCallGraph` from a decoded JSON payload.

    Raises :class:`PayloadError` with a caller-actionable message on any
    shape problem or structurally invalid graph (negative computation,
    non-positive flow, self-loop); the frontend maps that to a 400
    response.
    """
    if not isinstance(payload, dict):
        raise PayloadError("request body must be a JSON object")
    app_name = payload.get("app_name", "app")
    if not isinstance(app_name, str):
        raise PayloadError("app_name must be a string")
    functions = payload.get("functions")
    if not isinstance(functions, list) or not functions:
        raise PayloadError("functions must be a non-empty list")
    graph = FunctionCallGraph(app_name)
    for entry in functions:
        if not isinstance(entry, dict):
            raise PayloadError("each function must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise PayloadError("function name must be a non-empty string")
        computation = _finite_number(entry.get("computation"))
        if computation is None:
            raise PayloadError(f"function {name!r} needs a finite numeric computation")
        component = entry.get("component", "main")
        offloadable = entry.get("offloadable", True)
        if not isinstance(component, str):
            raise PayloadError(f"function {name!r} component must be a string")
        if not isinstance(offloadable, bool):
            raise PayloadError(f"function {name!r} offloadable must be a boolean")
        if graph.graph.has_node(name):
            raise PayloadError(f"duplicate function {name!r}")
        try:
            graph.add_function(
                name, computation=computation, component=component, offloadable=offloadable
            )
        except ValueError as exc:
            raise PayloadError(f"function {name!r}: {exc}") from exc
    flows = payload.get("data_flows", [])
    if not isinstance(flows, list):
        raise PayloadError("data_flows must be a list")
    for flow in flows:
        if not isinstance(flow, list) or len(flow) != 3:
            raise PayloadError("each data flow must be [u, v, amount]")
        u, v, amount = flow
        if not isinstance(u, str) or not isinstance(v, str):
            raise PayloadError("data flow endpoints must be function names")
        amount = _finite_number(amount)
        if amount is None:
            raise PayloadError(f"data flow {u!r}-{v!r} needs a finite numeric amount")
        if not graph.graph.has_node(u) or not graph.graph.has_node(v):
            raise PayloadError(f"data flow {u!r}-{v!r} references unknown functions")
        try:
            graph.add_data_flow(u, v, amount)
        except ValueError as exc:
            raise PayloadError(f"data flow {u!r}-{v!r}: {exc}") from exc
    return graph


def graph_to_payload(call_graph: FunctionCallGraph) -> dict[str, Any]:
    """JSON-ready inverse of :func:`parse_graph_payload`.

    ``parse_graph_payload(graph_to_payload(g))`` rebuilds a graph with
    the same content fingerprint as ``g`` — clients (and the soak
    benchmark) use this to drive the HTTP frontend with generated
    workloads.
    """
    return {
        "app_name": call_graph.app_name,
        "functions": [
            {
                "name": name,
                "computation": call_graph.info(name).computation,
                "component": call_graph.info(name).component,
                "offloadable": call_graph.info(name).offloadable,
            }
            for name in call_graph.functions()
        ],
        "data_flows": [[u, v, weight] for u, v, weight in call_graph.graph.edges()],
    }


def response_to_dict(response: PlanResponse) -> dict[str, Any]:
    """JSON-ready view of a :class:`PlanResponse` (plan digested inline)."""
    body: dict[str, Any] = {
        "request_id": response.request_id,
        "key": response.key,
        "ok": response.ok,
        "cached": response.cached,
        "latency_seconds": response.latency_seconds,
    }
    if response.error is not None:
        body["error"] = {"code": response.error.code, "message": response.error.message}
    if response.plan is not None:
        body["plan"] = plan_to_dict(response.plan)
        body["plan_digest"] = plan_digest(response.plan)
    return body


class HttpFrontend:
    """Serve a :class:`PlanService` over HTTP/1.1 (one asyncio loop).

    The frontend does not own the service: callers start/close the
    service themselves, which keeps one service shareable between the
    HTTP surface and in-process submitters.  ``port=0`` binds an
    ephemeral port — read :attr:`port` after :meth:`start`.
    """

    def __init__(
        self, service: PlanService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        # Loop-confined: only handler coroutines touch the ticket table,
        # and they all run on the one event loop — no lock needed (and a
        # lock here would be a blocking wait on the loop thread).
        self._tickets: OrderedDict[int, PlanTicket] = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("frontend is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind the listening socket on the running event loop."""
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self._requested_port
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have run)."""
        if self._server is None:
            raise RuntimeError("frontend is not started")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._handle_one(reader)
        except Exception as exc:  # Defensive: a handler bug must produce a
            # 500 response (recorded below), never a hung connection.
            status, content_type, body = 500, _JSON, _error_body(
                "internal", f"unhandled error: {exc}"
            )
            # repro: allow[asyncsafety/blocking-call] counter micro-lock is uncontended and sub-microsecond
            self.service.metrics.counter("http_internal_errors").inc()
        try:
            writer.write(_render_response(status, content_type, body))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            # Client went away mid-response; nothing left to deliver.
            self.service.metrics.counter("http_client_disconnects").inc()

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, bytes]:
        # readline raises ValueError for a line past the reader's 64 KiB
        # limit; readexactly raises IncompleteReadError when the client
        # closes before sending Content-Length bytes.
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, _JSON, _error_body("bad-request", "malformed request line")
            method, path = parts[0].upper(), parts[1]

            content_length = 0
            while True:
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        return 400, _JSON, _error_body("bad-request", "bad content-length")
            if content_length < 0 or content_length > _MAX_BODY_BYTES:
                return 413, _JSON, _error_body("too-large", "request body too large")
            body = await reader.readexactly(content_length) if content_length else b""
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            return 400, _JSON, _error_body("bad-request", "unreadable request")

        if method == "GET" and path == "/healthz":
            return 200, _JSON, json.dumps({"status": "ok"}).encode()
        if method == "GET" and path == "/metrics":
            # metrics_report snapshots every series under the registry
            # lock — off-loop, like any other potentially-contended wait.
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(None, self.service.metrics_report)
            return 200, "text/plain; charset=utf-8", report.encode()
        if method == "POST" and path == "/plan":
            return await self._route_plan(body, wait=True)
        if method == "POST" and path == "/submit":
            return await self._route_plan(body, wait=False)
        if method == "GET" and path.startswith("/result/"):
            return await self._route_result(path[len("/result/") :])
        return 404, _JSON, _error_body("not-found", f"no route for {method} {path}")

    async def _route_plan(self, body: bytes, wait: bool) -> tuple[int, str, bytes]:
        try:
            payload = json.loads(body.decode("utf-8"))
            graph = parse_graph_payload(payload)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _JSON, _error_body("bad-json", f"invalid JSON body: {exc}")
        except RecursionError:
            return 400, _JSON, _error_body("bad-json", "JSON body nested too deeply")
        except PayloadError as exc:
            return 400, _JSON, _error_body("invalid-graph", str(exc))
        # submit() takes the queue condition and metrics locks; under a
        # slow or contended planner that wait must not stall the loop.
        loop = asyncio.get_running_loop()
        ticket = await loop.run_in_executor(None, self.service.submit, graph)
        if not wait:
            self._tickets[ticket.request_id] = ticket
            while len(self._tickets) > _MAX_TICKETS:
                self._tickets.popitem(last=False)
            accepted = {"request_id": ticket.request_id, "key": ticket.key}
            return 202, _JSON, json.dumps(accepted).encode()
        response = await loop.run_in_executor(None, ticket.result)
        return _status_for(response), _JSON, json.dumps(response_to_dict(response)).encode()

    async def _route_result(self, raw_id: str) -> tuple[int, str, bytes]:
        try:
            request_id = int(raw_id)
        except ValueError:
            return 400, _JSON, _error_body("bad-request", f"bad request id {raw_id!r}")
        ticket = self._tickets.get(request_id)
        if ticket is None:
            return 404, _JSON, _error_body("unknown-ticket", f"no ticket {request_id}")
        if not ticket.done:
            pending = {"request_id": request_id, "done": False}
            return 202, _JSON, json.dumps(pending).encode()
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(None, ticket.result)
        return _status_for(response), _JSON, json.dumps(response_to_dict(response)).encode()


def _status_for(response: PlanResponse) -> int:
    if response.ok:
        return 200
    code = response.error.code if response.error is not None else "internal"
    return {
        "invalid-graph": 400,
        "shed": 429,
        "timeout": 504,
        "closed": 503,
    }.get(code, 500)


def _error_body(code: str, message: str) -> bytes:
    return json.dumps({"error": {"code": code, "message": message}}).encode()


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render_response(status: int, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


class HttpFrontendThread:
    """Run an :class:`HttpFrontend` on a dedicated event-loop thread.

    The synchronous shape the CLI and tests want: construct, call
    :meth:`start` (returns the bound port), talk HTTP, call :meth:`close`.
    """

    def __init__(
        self, service: PlanService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.frontend = HttpFrontend(service, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: Exception | None = None

    def start(self, timeout: float = 10.0) -> int:
        """Start the loop thread and return the bound port (idempotent:
        ``with HttpFrontendThread(...) as f: f.start()`` starts one loop)."""
        if self._thread is not None:
            return self.frontend.port
        self._thread = threading.Thread(
            target=self._run, name="plan-http-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("HTTP frontend failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("HTTP frontend failed to bind") from self._startup_error
        return self.frontend.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.frontend.start())
            except (OSError, ValueError) as exc:
                # Bind/odd-host failures must unblock and re-raise in
                # start(), not die silently on the daemon thread.
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            loop.run_until_complete(self.frontend.aclose())
        finally:
            loop.close()

    def join(self, timeout: float | None = None) -> None:
        """Block until the serving thread exits (Ctrl-C friendly)."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving and join the loop thread (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "HttpFrontendThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_fastapi_app(service: PlanService) -> Any:
    """Build a FastAPI app over *service* (optional dependency).

    Raises :class:`RuntimeError` when FastAPI is not installed; the
    stdlib :class:`HttpFrontend` is the always-available surface and the
    two expose the same routes and payloads.
    """
    try:
        from fastapi import FastAPI, Request, Response
    except ImportError as exc:  # pragma: no cover - fastapi optional
        raise RuntimeError(
            "fastapi is not installed; use HttpFrontend (stdlib) instead"
        ) from exc

    app = FastAPI(title="repro plan service")  # pragma: no cover - fastapi optional

    @app.get("/healthz")  # pragma: no cover - fastapi optional
    async def healthz() -> dict[str, str]:
        return {"status": "ok"}

    @app.get("/metrics")  # pragma: no cover - fastapi optional
    async def metrics() -> Response:
        return Response(content=service.metrics_report(), media_type="text/plain")

    @app.post("/plan")  # pragma: no cover - fastapi optional
    async def plan(request: Request) -> Response:
        try:
            graph = parse_graph_payload(await request.json())
        except PayloadError as exc:
            return Response(
                content=_error_body("invalid-graph", str(exc)),
                media_type=_JSON,
                status_code=400,
            )
        ticket = service.submit(graph)
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(None, ticket.result)
        return Response(
            content=json.dumps(response_to_dict(response)),
            media_type=_JSON,
            status_code=_status_for(response),
        )

    return app  # pragma: no cover - fastapi optional


__all__ = [
    "HttpFrontend",
    "HttpFrontendThread",
    "PayloadError",
    "graph_to_payload",
    "make_fastapi_app",
    "parse_graph_payload",
    "response_to_dict",
]
