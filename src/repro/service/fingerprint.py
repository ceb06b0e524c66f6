"""Content-addressed identity for plan requests.

``plan_system`` historically cached per call-graph *object identity*,
which fails exactly in the realistic serving scenario: millions of users
running the same application submit structurally identical graphs as
distinct objects.  This module gives every (graph, config) pair a stable
name:

* :func:`graph_fingerprint` — the **content** fingerprint: a SHA-256
  over the canonically sorted functions and data flows.  Invariant under
  node *insertion order* and across processes, sensitive to names,
  weights, components and offloadability.  This is the cache key: two
  graphs with the same content fingerprint produce byte-identical plans,
  so one may safely answer for the other.
* :func:`config_fingerprint` / :func:`request_fingerprint` — the same
  canonical hashing over planner configs and (graph, config) pairs.

Floats are canonicalised through ``repr`` (shortest round-trip form in
CPython >= 3.1), so equal weights hash equal regardless of how they were
computed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any

from repro.callgraph.model import FunctionCallGraph


class FingerprintError(TypeError):
    """Raised when a config holds an object with no canonical encoding."""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _canon_float(value: float) -> str:
    return repr(float(value))


# ----------------------------------------------------------------------
# Graph fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(call_graph: FunctionCallGraph) -> str:
    """Canonical content hash of *call_graph* (names included).

    Sorting functions by name and edges by their sorted endpoint pair
    makes the hash independent of construction order; including the
    names makes it safe as a plan-cache key (cached parts reference
    function names that exist in every graph sharing the hash).

    >>> a = FunctionCallGraph("x"); _ = a.add_function("f", 1.0)
    >>> b = FunctionCallGraph("x"); _ = b.add_function("f", 1.0)
    >>> graph_fingerprint(a) == graph_fingerprint(b)
    True
    """
    nodes = sorted(
        (
            info.name,
            _canon_float(info.computation),
            info.component,
            "1" if info.offloadable else "0",
        )
        for info in (call_graph.info(name) for name in call_graph.functions())
    )
    edges = sorted(
        (*sorted((str(u), str(v))), _canon_float(w))
        for u, v, w in call_graph.graph.edges()
    )
    return _digest(
        "graph-v1",
        json.dumps(nodes, separators=(",", ":")),
        json.dumps(edges, separators=(",", ":")),
    )


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """Recursively encode a config value as canonical JSON-compatible data.

    Dataclasses carry their class name (two rules with identical fields
    but different semantics must not alias); anything without a known
    canonical form raises :class:`FingerprintError` so callers can fall
    back to identity keying.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _canon_float(value)
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if is_dataclass(value) and not isinstance(value, type):
        encoded = {"__class__": type(value).__name__}
        for f in fields(value):
            encoded[f.name] = _encode(getattr(value, f.name))
        return encoded
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json.dumps(_encode(item), sort_keys=True) for item in value)
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    raise FingerprintError(
        f"cannot canonically encode {type(value).__name__!r} for fingerprinting"
    )


def config_fingerprint(config: Any) -> str:
    """Canonical hash of a planner configuration (any dataclass tree).

    Raises :class:`FingerprintError` when the config embeds an object
    with no canonical encoding (e.g. a bare callable) — callers are
    expected to degrade to identity-based caching in that case.
    """
    return _digest("config-v1", json.dumps(_encode(config), sort_keys=True))


def request_fingerprint(
    call_graph: FunctionCallGraph,
    config: Any = None,
    strategy_name: str = "",
) -> str:
    """The plan-cache key: graph content + config + cut strategy name.

    The cut strategy itself is a callable and cannot be hashed; its
    registered name stands in for it, so two strategies sharing a name
    must behave identically (the ``make_planner`` registry guarantees
    this for the built-ins).
    """
    return _digest(
        "request-v1",
        graph_fingerprint(call_graph),
        config_fingerprint(config) if config is not None else "-",
        strategy_name,
    )
