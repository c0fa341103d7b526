"""Synchronous computations and component timestamps (paper §5, Figure 3)."""

from repro.sync.component_clock import (
    ComponentSyncClock,
    ComponentTimestamp,
    timestamp_mismatches,
)
from repro.sync.decomposition import (
    Component,
    Decomposition,
    best_decomposition,
    star_decomposition,
    star_triangle_decomposition,
)
from repro.sync.timed import SyncSimResult, simulate_sync
from repro.sync.model import (
    handshake,
    internal_event,
    joint_happened_before,
    random_sync_execution,
)

__all__ = [
    "ComponentSyncClock",
    "ComponentTimestamp",
    "timestamp_mismatches",
    "Component",
    "Decomposition",
    "best_decomposition",
    "star_decomposition",
    "star_triangle_decomposition",
    "handshake",
    "internal_event",
    "joint_happened_before",
    "random_sync_execution",
    "SyncSimResult",
    "simulate_sync",
]
