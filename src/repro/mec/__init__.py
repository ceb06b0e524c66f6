"""MEC system model and offloading scheme generation (Sections II & III-B).

This package turns cut decisions into joules and seconds: it implements
formulas (1)-(6) of the paper, the shared edge server with its capacity
allocation and waiting-time model, and the greedy offloading scheme
generator of Algorithm 2.
"""

from repro.mec.admission import (
    AllocationPolicy,
    EqualShareAllocation,
    FCFSQueueAllocation,
    ProportionalShareAllocation,
    QueueTheoreticAllocation,
    ServerAllocation,
)
from repro.mec.channel import (
    ChannelQuality,
    SharedChannel,
    make_quality_profile,
)
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.energy import (
    ConsumptionBreakdown,
    local_compute_time,
    local_energy,
    remote_compute_time,
    transmission_energy,
    transmission_time,
)
from repro.mec.game import (
    BestResponseMove,
    BestResponseResult,
    best_response_equilibrium,
    solo_offload_set,
)
from repro.mec.greedy import GreedyResult, generate_offloading_scheme
from repro.mec.objective import ObjectiveWeights
from repro.mec.online import AdmissionRecord, OnlinePlanner, regret_vs_offline
from repro.mec.scheme import OffloadingScheme, PartitionedApplication, SchemePart
from repro.mec.system import MECSystem, SystemConsumption, UserContext
from repro.mec.validation import ValidationResult, validate_scheme

__all__ = [
    "MobileDevice",
    "EdgeServer",
    "DeviceProfile",
    "AllocationPolicy",
    "EqualShareAllocation",
    "ProportionalShareAllocation",
    "FCFSQueueAllocation",
    "QueueTheoreticAllocation",
    "ServerAllocation",
    "ConsumptionBreakdown",
    "local_compute_time",
    "remote_compute_time",
    "local_energy",
    "transmission_energy",
    "transmission_time",
    "ObjectiveWeights",
    "MECSystem",
    "UserContext",
    "SystemConsumption",
    "OffloadingScheme",
    "SchemePart",
    "PartitionedApplication",
    "GreedyResult",
    "generate_offloading_scheme",
    "ChannelQuality",
    "SharedChannel",
    "make_quality_profile",
    "BestResponseMove",
    "BestResponseResult",
    "best_response_equilibrium",
    "solo_offload_set",
    "validate_scheme",
    "ValidationResult",
    "OnlinePlanner",
    "AdmissionRecord",
    "regret_vs_offline",
]
