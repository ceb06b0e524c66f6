"""Host-speed probes, so that times compare across runs on a shared host.

A shared host's CPUs change speed by up to ~1.7x for seconds at a time
(another tenant busy on the same core), each CPU on its own.  A plan of
several seconds can not be timed apart from that drift, so the
benchmark measures the drift alongside: every :data:`INTERVAL_S`
seconds a fixed pure-Python :func:`probe` is timed on the CPU that runs
the program.  :meth:`Probes.slowdown` is how much slower than
:data:`PROBE_REFERENCE_S` the probe ran over an interval, and the
benchmark divides the program's times by it.

The result is the time the program would take with the probe at its
reference duration.  A slower program still reads slower: the probe is
the benchmark's own code and does not change with the program.

Two ways to probe: :class:`SpeedSampler` interrupts the benchmark's own
process from a timer signal (the plan workloads), and
``python3 perfbench/speed.py --cpu N --out FILE`` probes from its own
process pinned to CPU ``N``, beside a server pinned there, until SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from types import FrameType

INTERVAL_S = 0.025
WINDOW_S = 1.0
PROBE_ROUNDS = 1500
PROBE_REFERENCE_S = 0.00025
"""The probe's duration on the host the baseline was measured on (an
Intel Xeon vCPU) at its faster speed."""


def probe() -> int:
    """Fixed interpreter work: arithmetic, a dict and a list, as planning does."""
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ROUNDS):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        total += key * i % 13
    return total + len(sorted(table.values()))


class Probes:
    """Timed probes as (start, duration), ``time.perf_counter`` seconds."""

    def __init__(self, probes: list[tuple[float, float]] | None = None) -> None:
        self.probes = probes if probes is not None else []

    def slowdown(self, start: float, end: float) -> float:
        """Median probe duration around ``[start, end]`` over the reference.

        The interval is widened to at least :data:`WINDOW_S` about its
        middle, so that a short request is judged by tens of probes."""
        middle, half = (start + end) / 2.0, max(end - start, WINDOW_S) / 2.0
        inside = sorted(d for at, d in self.probes if middle - half <= at <= middle + half)
        if not inside:
            raise ValueError("no speed probe near the interval")
        return inside[len(inside) // 2] / PROBE_REFERENCE_S

    def normalise(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at reference speed, without the
        probes that ran inside it (for probes that interrupt the timed code)."""
        probing = sum(d for at, d in self.probes if start <= at <= end)
        return (end - start - probing) / self.slowdown(start, end)

    @classmethod
    def load(cls, path: str) -> "Probes":
        with open(path, encoding="ascii") as handle:
            return cls([(float(a), float(d)) for a, d in (line.split() for line in handle)])


class SpeedSampler(Probes):
    """Times :func:`probe` from ``SIGALRM`` while active; a context manager."""

    def __init__(self) -> None:
        super().__init__()
        self._previous: object = None

    def _tick(self, signum: int, frame: FrameType | None) -> None:
        started = time.perf_counter()
        probe()
        self.probes.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="probe one CPU's speed until SIGTERM")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    stopped = False

    def stop(signum: int, frame: FrameType | None) -> None:
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    probes: list[tuple[float, float]] = []
    print("probing", flush=True)
    while not stopped:
        time.sleep(INTERVAL_S)
        started = time.perf_counter()
        probe()
        probes.append((started, time.perf_counter() - started))
    with open(args.out, "w", encoding="ascii") as handle:
        handle.writelines(f"{at!r} {duration!r}\n" for at, duration in probes)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
