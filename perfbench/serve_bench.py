"""The ``serve-mixed`` workload: the HTTP server under open-loop traffic.

The server runs in its own process (``python -m repro serve-http``, or
``serve_traced.py`` for the traced run), pinned to one CPU.  This
process is the one client, on the other CPU: two sender threads (at most
two connections) replay a seeded schedule rung by rung.  Every request
is timed from when it was due, so time spent waiting behind a slow
request counts.  The untraced run divides each time by the server CPU's
slowdown, probed beside it (see ``speed.py``).
"""

from __future__ import annotations

import bisect
import gc
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import inputs
import layers
from plan_bench import warm_up
from spans import Tracer, layer_totals
from speed import Probes
from stats import median, percentile, tail_level

from repro.service import plan_digest, plan_from_dict

CONNECTIONS = 2
LATENCY_LIMIT_S = 1.0
"""A rung passes when its all-request p95 stays within this limit."""
BACKLOG_GROWTH = 2.0
"""A rung whose mean backlog grows by this many requests from its first
to its second half has a growing backlog."""
LAG_LIMIT_S = 0.020
"""A rung is invalid when the generator's own p99 lag exceeds this."""
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One server process on an ephemeral port; stop() always reaps it."""

    def __init__(self, src: str, out_dir: str, cpu: int, spans_path: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        serve_args = ["serve-http", "--port", "0", "--workers", "2", "--executor", "thread"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable,
                os.path.join(HERE, "serve_traced.py"),
                "--spans",
                spans_path,
                *serve_args,
            ]
        self.started = time.perf_counter()
        self._stderr = open(os.path.join(out_dir, "server.stderr"), "ab")
        self.process = subprocess.Popen(
            command,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        # Threads the server starts later inherit its CPU.
        os.sched_setaffinity(self.process.pid, {cpu})
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Clock time (``perf_counter``) at which ``/healthz`` first answers."""
        assert self.process.stdout is not None
        line = self.process.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = self.started + timeout
        while True:
            try:
                status, _ = http_call(self.port, "GET", "/healthz", None, timeout=5.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
        return time.perf_counter()

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGINT (the server's graceful path), then SIGTERM, then SIGKILL."""
        for stop_signal in (signal.SIGINT, signal.SIGTERM, signal.SIGKILL):
            if self.process.poll() is not None:
                break
            self.process.send_signal(stop_signal)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                continue
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()


class Prober:
    """``speed.py`` probing the server's CPU in its own process."""

    def __init__(self, cpu: int, out_dir: str) -> None:
        self.path = os.path.join(out_dir, "speed-probes.txt")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"), "--cpu", str(cpu), "--out", self.path],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        assert self.process.stdout is not None
        if self.process.stdout.readline() != b"probing\n":
            self.stop()
            raise RuntimeError("speed probe did not start")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def probes(self) -> Probes:
        self.stop()
        if self.process.returncode != 0:
            raise RuntimeError(f"speed probe exited with {self.process.returncode}")
        return Probes.load(self.path)


def http_call(
    port: int, method: str, path: str, body: bytes | None, timeout: float = REQUEST_TIMEOUT_S
) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    request: inputs.Request
    latency: float = float("inf")
    """Seconds from due time to the end of the response (inf = failed)."""
    lag: float = 0.0
    """Seconds the generator itself sent late (sender was free)."""
    backlog: int = 0
    """Requests due but not yet sent when this one was sent."""
    sent_at: float = 0.0
    done_at: float = 0.0
    """Send and completion times, seconds after the rung's origin."""
    due_clock: float = 0.0
    done_clock: float = 0.0
    """Due and completion times as ``time.perf_counter`` readings."""
    status: int = 0
    body: bytes = b""


@dataclass
class RungReport:
    rung: inputs.Rung
    outcomes: list[Outcome] = field(default_factory=list)
    p95: float = 0.0
    backlog_growth: float = 0.0
    lag_p99: float = 0.0

    @property
    def valid(self) -> bool:
        return self.lag_p99 <= LAG_LIMIT_S

    @property
    def passed(self) -> bool:
        return self.p95 <= LATENCY_LIMIT_S and self.backlog_growth < BACKLOG_GROWTH


def drive(
    port: int, requests: list[inputs.Request], bodies: dict[tuple[bool, int], bytes]
) -> list[Outcome]:
    """Send *requests* on their schedule over at most two connections."""
    outcomes = [Outcome(request) for request in requests]
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05
    dues = [origin + request.due for request in requests]

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            outcome = outcomes[index]
            picked = time.perf_counter()
            if picked < dues[index]:
                time.sleep(dues[index] - picked)
            sent = time.perf_counter()
            outcome.lag = sent - max(dues[index], picked)
            outcome.backlog = bisect.bisect_right(dues, sent) - index - 1
            outcome.sent_at = sent - origin
            request = outcome.request
            try:
                status, body = http_call(port, "POST", "/plan", bodies[(request.cold, request.app)])
            except (OSError, http.client.HTTPException):
                continue
            done = time.perf_counter()
            outcome.status, outcome.body = status, body
            outcome.done_at = done - origin
            outcome.due_clock, outcome.done_clock = dues[index], done
            if status == 200:
                outcome.latency = done - dues[index]

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def judge(rung: inputs.Rung, outcomes: list[Outcome]) -> RungReport:
    report = RungReport(rung, outcomes)
    report.p95 = percentile([o.latency for o in outcomes], 95)
    half = len(outcomes) // 2
    first = [o.backlog for o in outcomes[:half]]
    second = [o.backlog for o in outcomes[half:]]
    report.backlog_growth = sum(second) / len(second) - sum(first) / len(first)
    report.lag_p99 = percentile([o.lag for o in outcomes], 99)
    return report


def throughput(outcomes: list[Outcome]) -> float:
    """Successful completions per second from first send to last completion."""
    done = [o for o in outcomes if o.status == 200]
    span = max(o.done_at for o in done) - min(o.sent_at for o in outcomes)
    return len(done) / span


def max_rate(reports: list[RungReport]) -> float:
    """Highest rate of an unbroken run of valid, passing rungs from the bottom."""
    best = 0.0
    for report in reports:
        if not (report.valid and report.passed):
            break
        best = report.rung.rate
    return best


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, src: str, out_dir: str) -> dict:
    from repro import make_planner

    popular = [inputs.popular_app(seed, index) for index in range(inputs.POPULAR_APPS)]
    bodies = {(False, index): inputs.payload_bytes(app) for index, app in enumerate(popular)}
    one_offs: dict[int, Any] = {}
    # The untraced run spends all its time at the nominal rate, for the
    # end-to-end latencies; the traced run climbs the ladder and then
    # saturates the server, for the per-layer numbers.
    ladder = inputs.LADDER if trace else (inputs.nominal_rung(seconds),)
    schedule = inputs.serve_schedule(seed, ladder + ((inputs.SATURATION,) if trace else ()))

    setup_windows: list[tuple[float, float]] = []
    spans_path = os.path.join(out_dir, f"serve-mixed-{seed}-spans.json") if trace else None
    repeats = 1 if trace else SETUP_REPEATS
    phases = {"start": time.perf_counter()}

    def prepare(rung_index: int) -> list[inputs.Request]:
        """The rung's requests, with its one-off apps generated (untimed)."""
        requests = [r for r in schedule if r.rung == rung_index]
        for request in requests:
            if request.cold:
                app = inputs.one_off_app(seed, popular, request.app)
                one_offs[request.app] = app
                bodies[(True, request.app)] = inputs.payload_bytes(app)
        gc.collect()
        return requests

    # The server has one CPU to itself and this process the others, so
    # the generator's own work never delays the server.  The untraced
    # run probes the server's CPU speed throughout (see speed.py).
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1]
    os.sched_setaffinity(0, set(cpus[:-1]) or {server_cpu})
    reports: list[RungReport] = []
    warmup: list[Outcome] = []
    saturated: list[Outcome] = []
    prober = None if trace else Prober(server_cpu, out_dir)
    try:
        server: Server | None = None
        for attempt in range(repeats):
            spans = spans_path if attempt == repeats - 1 else None
            server = Server(src, out_dir, server_cpu, spans)
            try:
                setup_windows.append((server.started, server.wait_ready()))
            except BaseException:
                server.stop()
                raise
            if attempt < repeats - 1:
                server.stop()
        assert server is not None
        try:
            for index in range(inputs.POPULAR_APPS):
                warm = Outcome(inputs.Request(-1, -1, 0.0, index, False))
                started = time.perf_counter()
                warm.status, warm.body = http_call(
                    server.port, "POST", "/plan", bodies[(False, index)]
                )
                warm.latency = time.perf_counter() - started
                warmup.append(warm)

            ladder_started = phases["ladder"] = time.perf_counter()
            for rung_index, rung in enumerate(ladder):
                report = judge(rung, drive(server.port, prepare(rung_index), bodies))
                reports.append(report)
                out_of_time = time.perf_counter() - ladder_started > seconds
                if not (report.valid and report.passed) or out_of_time:
                    break
            if trace:
                saturated = drive(server.port, prepare(len(ladder)), bodies)
            peak_rss = server.peak_rss_mib()
        finally:
            phases["stop"] = time.perf_counter()
            server.stop()
    finally:
        probes = prober.probes() if prober is not None else None
        os.sched_setaffinity(0, cpus)
    phases["oracle"] = time.perf_counter()

    # ---- correctness: every plan equals an in-process plan_user ------
    warm_up()
    overhead = traced_plan_ratio(popular) if trace else 0.0
    planner = make_planner("spectral")
    expected: dict[tuple[bool, int], str] = {}
    for index, app in enumerate(popular):
        expected[(False, index)] = plan_digest(planner.plan_user(app))
    for index, app in one_offs.items():
        expected[(True, index)] = plan_digest(planner.plan_user(app))

    phases["check"] = time.perf_counter()
    outcomes = warmup + [o for report in reports for o in report.outcomes] + saturated
    problems: list[str] = []
    failed = 0
    cut_total = 0.0
    for outcome in outcomes:
        request = outcome.request
        problem = response_problem(outcome, expected[(request.cold, request.app)])
        if problem is not None:
            failed += 1
            problems.append(f"request {request.index}: {problem}")
        elif request.index < 0:
            cut_total += sum(json.loads(outcome.body)["plan"]["cut_values"])
    nominal = next(r for r in reports if r.rung.nominal)
    hits = [o.latency for o in nominal.outcomes if not o.request.cold]
    colds = [o.latency for o in nominal.outcomes if o.request.cold]
    # The saturation rung is sent late on purpose; only the ladder's lag
    # says whether the generator kept its schedule.
    all_lags = [o.lag for report in reports for o in report.outcomes]

    if probes is not None:

        def at_reference(outcomes: list[Outcome]) -> list[float]:
            """Latencies at reference speed (a failed request stays infinite)."""
            return [
                o.latency / probes.slowdown(o.due_clock, o.done_clock)
                if math.isfinite(o.latency)
                else o.latency
                for o in outcomes
            ]

        setups = [
            (ready - spawned) / probes.slowdown(spawned, ready)
            for spawned, ready in setup_windows
        ]
        metrics = {
            "setup_s": median(setups),
            "p50_ms": percentile(at_reference(nominal.outcomes), 50) * 1000.0,
            "cold_p50_ms": median(
                at_reference([o for o in nominal.outcomes if o.request.cold])
            ) * 1000.0,
            "plan_quality": cut_total,
            "peak_rss_mib": peak_rss,
            "ok_ratio": (len(outcomes) - failed) / len(outcomes),
        }
    else:
        tracer = Tracer.load(spans_path)
        metrics = serve_layer_metrics(tracer, len(outcomes))
        metrics["fail_ratio"] = failed / len(outcomes)
        metrics["loadgen.lag_p99_ms"] = percentile(all_lags, 99) * 1000.0
        metrics["serve.max_rate_rps"] = max_rate(reports)
        metrics["serve.saturated_rps"] = throughput(saturated)
        metrics.update(latency_tails("serve.hit", hits))
        metrics.update(latency_tails("serve.cold", colds))
        metrics["trace.overhead_ratio"] = overhead
    marks = list(phases.items())
    sys.stderr.write(
        "serve-mixed phases: "
        + ", ".join(
            f"{name} {later - at:.1f}s" for (name, at), (_, later) in zip(marks, marks[1:])
        )
        + "\n"
    )
    every = [o.latency for o in nominal.outcomes]
    sys.stderr.write(
        "serve-mixed nominal: "
        + " ".join(f"p{q}={percentile(every, q) * 1000:.0f}ms" for q in (10, 25, 50, 90))
        + f"; hit p25={percentile(hits, 25) * 1000:.0f}ms cold p25={percentile(colds, 25) * 1000:.0f}ms"
        + "\n"
    )
    sys.stderr.write(
        "serve-mixed rungs: "
        + ", ".join(
            f"{r.rung.rate:g}/s p95={r.p95 * 1000:.0f}ms backlog+={r.backlog_growth:.1f}"
            f" lag_p99={r.lag_p99 * 1000:.0f}ms"
            f"{'' if r.valid else ' INVALID'}{'' if r.passed else ' FAIL'}"
            for r in reports
        )
        + "\n"
    )
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def response_problem(outcome: Outcome, want_digest: str) -> str | None:
    """Why a response is not the plan ``plan_user`` gives (``None`` = correct)."""
    if outcome.status != 200:
        return f"HTTP status {outcome.status}"
    try:
        answer = json.loads(outcome.body)
    except ValueError:
        return "response is not JSON"
    if answer.get("plan_digest") != want_digest:
        return "plan digest differs from in-process plan_user"
    if plan_digest(plan_from_dict(answer["plan"])) != want_digest:
        return "plan body does not match its digest"
    return None


def latency_tails(prefix: str, latencies: list[float]) -> dict[str, float]:
    """Median and the highest percentile with ten samples beyond it."""
    level = tail_level(len(latencies))
    tail = percentile(latencies, level) if level is not None else median(latencies)
    return {
        f"{prefix}_p50_ms": median(latencies) * 1000.0,
        f"{prefix}_tail_ms": tail * 1000.0,
        f"{prefix}_tail_pct": level if level is not None else 50.0,
    }


def traced_plan_ratio(apps: list[Any]) -> float:
    """Traced over untraced ``plan_user`` wall time on the same apps,
    alternating which of the pair runs first."""
    from repro import make_planner

    def timed(app: Any, traced: bool) -> float:
        patches = layers.install(Tracer()) if traced else None
        try:
            planner = make_planner("spectral")
            started = time.perf_counter()
            planner.plan_user(app)
            return time.perf_counter() - started
        finally:
            if patches is not None:
                patches.restore()

    traced_s = untraced_s = 0.0
    for index, app in enumerate(apps):
        order = (True, False) if index % 2 == 0 else (False, True)
        for traced in order:
            if traced:
                traced_s += timed(app, True)
            else:
                untraced_s += timed(app, False)
    return traced_s / untraced_s


def serve_layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request averages of the layers the server process recorded."""
    totals = layer_totals(tracer.spans)
    counters = tracer.counters

    def calls(span: str) -> float:
        entry = totals.get(span)
        return entry.calls / requests if entry else 0.0

    def own(span: str) -> float:
        entry = totals.get(span)
        return entry.self_s / requests if entry else 0.0

    hits = counters["service.plan_cache.hits"]
    misses = counters["service.plan_cache.misses"]
    waits = tracer.samples.get("service.queue.wait_s") or [0.0]
    nodes_in = counters["compression.nodes_in"]
    busy = totals.get(layers.SERVE)
    metrics = layers.empty_layer_metrics()
    for span in (
        "service.fingerprint",
        "core.planner.plan_user",
        "compression.compress",
        "spectral.cut",
        "service.http.parse",
        "service.http.encode",
    ):
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.s"] = own(span)
    metrics.update(
        {
            "compression.rounds": counters["compression.rounds"] / requests,
            "compression.node_ratio": (
                counters["compression.nodes_out"] / nodes_in if nodes_in else 0.0
            ),
            "service.plan_cache.hits": hits,
            "service.plan_cache.misses": misses,
            "service.plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.queue.wait_p50_ms": percentile(waits, 50) * 1000.0,
            "service.queue.wait_p95_ms": percentile(waits, 95) * 1000.0,
            "service.queue.coalesced": counters["service.queue.coalesced"],
            "service.queue.shed": counters["service.queue.shed"],
            "service.busy_s": busy.total_s / requests if busy else 0.0,
            "other.s": own(layers.SERVE),
        }
    )
    return metrics
