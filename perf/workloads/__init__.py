"""The six workloads, by name."""

from __future__ import annotations

from typing import Any, Dict


def make(name: str, seed: int, sizes: Dict[str, Any]):
    """Build workload *name*; its module (and the layers it needs) is imported here."""
    if name.startswith("sim-"):
        from workloads.sim import SimWorkload as cls
    elif name == "offline-nine":
        from workloads.offline import OfflineWorkload as cls
    elif name.startswith("kv-live-"):
        from workloads.live import LiveWorkload as cls
    elif name == "fabric-sweep":
        from workloads.fabric import FabricWorkload as cls
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cls(name, seed, sizes)
