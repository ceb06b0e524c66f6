"""Run ``repro serve-http`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py --spans OUT.json serve-http --port 0

The wrappers are the same ones the plan workloads install in-process;
the normal serve path then runs unchanged until SIGINT, and the recorded
spans, counters and queue waits are written to ``OUT.json`` at exit.
"""

from __future__ import annotations

import signal
import sys

import layers
from spans import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans OUT.json serve-http [ARGS...]", file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[1], argv[2:]

    def interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    # SIGTERM takes the same graceful path as SIGINT, so the spans are
    # still written.
    signal.signal(signal.SIGTERM, interrupt)
    tracer = Tracer()
    layers.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
