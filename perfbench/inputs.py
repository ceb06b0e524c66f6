"""Seeded input generation: the program only ever sees these inputs.

Every workload derives its inputs from the ``--seed`` argument through
:func:`repro.utils.rng.derive_seed`, so the same seed always gives the
same graphs, systems and request schedule.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.callgraph.model import FunctionCallGraph
from repro.mec.channel import SharedChannel
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.system import MECSystem, UserContext
from repro.utils.rng import RandomSource, derive_seed
from repro.workloads.applications import call_graph_from_weighted_graph
from repro.workloads.multiuser import MultiUserWorkload, build_mec_system
from repro.workloads.netgen import NetgenConfig, netgen_graph
from repro.workloads.profiles import quick_profile

# ----------------------------------------------------------------------
# Plan workloads
# ----------------------------------------------------------------------
FIG6 = {"users": 250, "graph_size": 1000}
"""The paper's smallest Figs. 6-8 point: 250 users, 1000-node apps (the
``quick_profile`` pool of four graphs, no channel)."""

CONTENDED = {
    "users": 50,
    "graph_size": 250,
    "pool": 4,
    "library": 40,
    "systems": 10,
    "channel_share": 0.25,
}
"""Ten shared-channel systems per seed.  Each draws its pool of four
apps from one library of forty generated graphs; the channel carries a
quarter of the users' summed device bandwidth.  How long the greedy's
withdraw/re-offer sweep runs differs a lot from system to system, so a
run plans many systems and reports the median over them."""

PLAN_WORKLOADS = ("plan-fig6", "plan-contended")


def _seed31(*labels: object) -> int:
    return derive_seed(*labels) % (2**31)


def assemble(
    pool: list[FunctionCallGraph], users: int, channel: SharedChannel | None = None
) -> MultiUserWorkload:
    """An MEC system whose user ``k`` runs ``pool[k % len(pool)]``, with
    ``quick_profile`` devices and server provisioning (as ``build_mec_system``)."""
    profile = quick_profile()
    contexts = [
        UserContext(
            device=MobileDevice(device_id=f"user{k:05d}", profile=profile.device),
            call_graph=pool[k % len(pool)],
        )
        for k in range(users)
    ]
    system = MECSystem(
        server=EdgeServer(total_capacity=profile.server_capacity_per_user * users),
        users=contexts,
        channel=channel,
    )
    return MultiUserWorkload(
        system=system,
        call_graphs={user.user_id: user.call_graph for user in contexts},
        distinct_graphs=list(pool),
        user_graph_index={f"user{k:05d}": k % len(pool) for k in range(users)},
    )


def plan_systems(workload: str, seed: int) -> list[MultiUserWorkload]:
    """The multi-user systems one run of *workload* plans."""
    if workload == "plan-fig6":
        profile = dataclasses.replace(quick_profile(), seed=_seed31(seed, workload, 0))
        return [build_mec_system(FIG6["users"], profile, graph_size=FIG6["graph_size"])]
    shape = CONTENDED
    size = shape["graph_size"]
    library = []
    for index in range(shape["library"]):
        graph_seed = _seed31(seed, workload, "graph", index)
        graph = netgen_graph(
            NetgenConfig(n_nodes=size, n_edges=quick_profile().edges_for(size), seed=graph_seed)
        )
        library.append(
            call_graph_from_weighted_graph(
                graph, app_name=f"app-{index}", unoffloadable_fraction=0.05, seed=graph_seed
            )
        )
    rng = RandomSource(_seed31(seed, workload, "pools"))
    capacity = shape["channel_share"] * shape["users"] * quick_profile().device.bandwidth
    return [
        assemble(
            rng.sample(library, shape["pool"]),
            shape["users"],
            SharedChannel(capacity=capacity),
        )
        for _ in range(shape["systems"])
    ]


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
SERVE_GRAPH = {"n_nodes": 1000, "n_edges": 4912, "unoffloadable_fraction": 0.05}
POPULAR_APPS = 8
COLD_SHARE = 0.15


@dataclass(frozen=True)
class Rung:
    rate: float
    """Offered requests per second (Poisson)."""
    requests: int
    nominal: bool = False


NOMINAL_RATE = 3.0


def nominal_rung(seconds: float) -> Rung:
    """The untraced run's only rung: ``seconds`` of traffic at the nominal rate."""
    return Rung(NOMINAL_RATE, round(NOMINAL_RATE * seconds), nominal=True)


LADDER = (Rung(NOMINAL_RATE, 45, nominal=True),) + tuple(
    Rung(rate, 30) for rate in (5.0, 6.0, 7.0, 8.0, 9.5, 11.0, 13.0, 16.0)
)
"""The traced run's rates, lowest first.  Rungs run one after another,
each from an empty queue.  The nominal rung reports latencies; the
ladder stops at the first rung that misses the latency limit."""

SATURATION = Rung(60.0, 50)
"""Run after the traced ladder: offered far above what the server
completes, so both connections stay busy and completions per second
measure capacity."""


@dataclass(frozen=True)
class Request:
    index: int
    rung: int
    due: float
    """Seconds after its rung starts at which the request is due."""
    app: int
    """Popular app index for hits; one-off app index for cold requests."""
    cold: bool


def popular_app(seed: int, index: int) -> FunctionCallGraph:
    """One of the popular NETGEN apps (planned once, then cache hits)."""
    graph_seed = _seed31(seed, "serve-mixed", "popular", index)
    graph = netgen_graph(
        NetgenConfig(
            n_nodes=SERVE_GRAPH["n_nodes"], n_edges=SERVE_GRAPH["n_edges"], seed=graph_seed
        )
    )
    return call_graph_from_weighted_graph(
        graph,
        app_name=f"popular-{index}",
        unoffloadable_fraction=SERVE_GRAPH["unoffloadable_fraction"],
        seed=graph_seed,
    )


def one_off_app(seed: int, popular: list[FunctionCallGraph], index: int) -> FunctionCallGraph:
    """A never-repeated app: popular app ``index mod 8``'s structure with
    every computation and data-flow weight re-drawn within +-10%, so its
    content fingerprint is new and it must be planned cold.  Cycling
    through the popular structures spreads a run's few cold plans evenly
    over them, instead of over however many a random draw would pick."""
    rng = RandomSource(_seed31(seed, "serve-mixed", "one-off", index))
    base = popular[index % len(popular)]
    app = FunctionCallGraph(f"one-off-{index}")
    for name in base.functions():
        info = base.info(name)
        app.add_function(
            name,
            computation=info.computation * rng.uniform(0.9, 1.1),
            component=info.component,
            offloadable=info.offloadable,
        )
    for u, v, weight in base.graph.edges():
        app.add_data_flow(u, v, weight * rng.uniform(0.9, 1.1))
    return app


def serve_schedule(seed: int, ladder: tuple[Rung, ...]) -> list[Request]:
    """Open-loop schedule: Poisson arrivals per rung, exact cold counts.

    A rung of ``n`` requests at rate ``r`` lasts exactly ``n / r``
    seconds; its arrival times are ``n`` sorted uniform draws over that
    interval, which is a Poisson process conditioned on ``n`` arrivals.
    Conditioning keeps each rung's offered rate exact, so rung-to-rung
    differences come from the server, not from how many arrivals a
    short rung happened to draw.  Each rung carries
    ``round(COLD_SHARE * n)`` cold requests at seeded positions; every
    other request names one of the popular apps uniformly.  Cold
    requests get consecutive new app indices, so no cold app repeats.
    """
    rng = RandomSource(_seed31(seed, "serve-mixed", "schedule"))
    schedule: list[Request] = []
    next_cold = 0
    for rung_index, rung in enumerate(ladder):
        span = rung.requests / rung.rate
        arrivals = sorted(rng.uniform(0.0, span) for _ in range(rung.requests))
        cold_slots = set(rng.sample(range(rung.requests), round(COLD_SHARE * rung.requests)))
        for position, clock in enumerate(arrivals):
            if position in cold_slots:
                app, cold = next_cold, True
                next_cold += 1
            else:
                app, cold = rng.randint(0, POPULAR_APPS - 1), False
            schedule.append(Request(len(schedule), rung_index, clock, app, cold))
    return schedule


def payload_bytes(graph: FunctionCallGraph) -> bytes:
    from repro.service import graph_to_payload

    return json.dumps(graph_to_payload(graph)).encode("utf-8")
