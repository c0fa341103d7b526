"""Synchronous computations and component timestamps (paper §5, Figure 3)."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "component_clock": (
        "ComponentSyncClock", "ComponentTimestamp", "timestamp_mismatches",
    ),
    "decomposition": (
        "Component", "Decomposition", "best_decomposition", "star_decomposition",
        "star_triangle_decomposition",
    ),
    "timed": ("SyncSimResult", "simulate_sync"),
    "model": (
        "handshake", "internal_event", "joint_happened_before", "random_sync_execution",
    ),
}

if TYPE_CHECKING:
    from repro.sync.component_clock import (
        ComponentSyncClock as ComponentSyncClock,
        ComponentTimestamp as ComponentTimestamp,
        timestamp_mismatches as timestamp_mismatches,
    )
    from repro.sync.decomposition import (
        Component as Component, Decomposition as Decomposition,
        best_decomposition as best_decomposition,
        star_decomposition as star_decomposition,
        star_triangle_decomposition as star_triangle_decomposition,
    )
    from repro.sync.timed import (
        SyncSimResult as SyncSimResult, simulate_sync as simulate_sync,
    )
    from repro.sync.model import (
        handshake as handshake, internal_event as internal_event,
        joint_happened_before as joint_happened_before,
        random_sync_execution as random_sync_execution,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
