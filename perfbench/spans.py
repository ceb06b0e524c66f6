"""In-memory span recording around the program's public entry points.

The benchmark never edits ``src/``: it times each layer from outside by
rebinding that layer's entry point to a wrapper that records a span
(name, start, end, parent span, fingerprint key where the layer sees
one).  Spans stay in memory and are written out as one JSON document
when the run ends.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int
    """Id of the enclosing span on the same thread (0 = root)."""
    name: str
    start: float
    end: float
    key: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counters and value samples from wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | None,
        key: Callable[[tuple, Any], str | None] | None = None,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
        on_error: Callable[["Tracer", BaseException], None] | None = None,
    ) -> Callable[..., Any]:
        """Return *fn* wrapped to record a span called *name*.

        With ``name=None`` no span is recorded and only the hooks run
        (for blocking calls whose duration is waiting, not work).
        *key* derives the span's fingerprint key from the call's
        arguments and result; *after* and *on_error* update counters.
        """

        @functools.wraps(fn, updated=())
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name is not None:
                stack = self._stack()
                span_id = next(self._ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                if name is not None:
                    end = time.perf_counter()
                    stack.pop()
                    span_key = key(args, result) if key is not None else None
                    self.spans.append(Span(span_id, parent, name, start, end, span_key))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans, counters and samples as one JSON document."""
        document = {
            "spans": [
                [span.span_id, span.parent, span.name, span.start, span.end, span.key]
                for span in self.spans
            ],
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read a document written by :meth:`dump`."""
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        tracer = cls()
        tracer.spans = [Span(*row) for row in document["spans"]]
        tracer.counters.update(document["counters"])
        for name, values in document["samples"].items():
            tracer.samples[name].extend(values)
        return tracer


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: duration minus its children's durations.

    Wrapped calls nest strictly on one thread, so a child's interval lies
    inside its parent's and the children of one parent never overlap.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.duration
    return {span.span_id: span.duration - covered[span.span_id] for span in spans}


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_totals(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Calls, total time and self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += own[span.span_id]
    return dict(totals)


class Patches:
    """Rebinds attributes to wrappers and restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
