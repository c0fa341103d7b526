"""Deterministic discrete-event simulation of asynchronous message passing."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "network": (
        "ConstantDelay", "DelayModel", "Network", "PerChannelDelay", "ReliableLink",
        "RetryPolicy", "UniformDelay",
    ),
    "adversary": ("FloodTiming", "slow_victim_flood"),
    "runner": ("AlgorithmStats", "ControlTransport", "Simulation", "SimulationResult"),
    "scheduler": ("EventScheduler",),
    "workload": (
        "BroadcastWorkload", "ClientServerWorkload", "UniformWorkload", "Workload",
    ),
}

if TYPE_CHECKING:
    from repro.sim.network import (
        ConstantDelay as ConstantDelay, DelayModel as DelayModel,
        Network as Network, PerChannelDelay as PerChannelDelay,
        ReliableLink as ReliableLink, RetryPolicy as RetryPolicy,
        UniformDelay as UniformDelay,
    )
    from repro.sim.adversary import (
        FloodTiming as FloodTiming, slow_victim_flood as slow_victim_flood,
    )
    from repro.sim.runner import (
        AlgorithmStats as AlgorithmStats, ControlTransport as ControlTransport,
        Simulation as Simulation, SimulationResult as SimulationResult,
    )
    from repro.sim.scheduler import EventScheduler as EventScheduler
    from repro.sim.workload import (
        BroadcastWorkload as BroadcastWorkload,
        ClientServerWorkload as ClientServerWorkload,
        UniformWorkload as UniformWorkload, Workload as Workload,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
