"""Fault-tolerant experiment fabric: resumable, placement-free sweeps.

The repo's one process-parallel sweep runner, a work-queue fabric:
sweep cells are content-hash keyed JSON specs, completed results land
atomically in a resumable :class:`ResultStore`, and the same sweep runs
serially or across local worker processes on this host — always
producing byte-identical stores and, with each cell's trace fragment
absorbed in input order, byte-identical traces.  See ``EXPERIMENTS.md``
for the operational guide.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "coordinator": ("FabricInterrupted", "FabricReport", "run_fabric"),
    "drivers": ("WORK_KINDS", "execute_cell"),
    "hashing": ("FABRIC_SCHEMA", "canonical_json", "cell_key"),
    "queue": ("CellFailed", "WorkQueue"),
    "store": ("ResultStore", "StoreError"),
}

if TYPE_CHECKING:
    from repro.fabric.coordinator import (
        FabricInterrupted as FabricInterrupted, FabricReport as FabricReport,
        run_fabric as run_fabric,
    )
    from repro.fabric.drivers import WORK_KINDS as WORK_KINDS, execute_cell as execute_cell
    from repro.fabric.hashing import (
        FABRIC_SCHEMA as FABRIC_SCHEMA, canonical_json as canonical_json,
        cell_key as cell_key,
    )
    from repro.fabric.queue import CellFailed as CellFailed, WorkQueue as WorkQueue
    from repro.fabric.store import ResultStore as ResultStore, StoreError as StoreError
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
