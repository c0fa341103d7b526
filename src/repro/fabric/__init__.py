"""Fault-tolerant experiment fabric: resumable, placement-free sweeps.

The repo's one process-parallel sweep runner, a work-queue fabric:
sweep cells are content-hash keyed JSON specs, completed results land
atomically in a resumable :class:`ResultStore`, and the same sweep runs
serially or across local worker processes on this host — always
producing byte-identical stores and, with each cell's trace fragment
absorbed in input order, byte-identical traces.  See ``EXPERIMENTS.md``
for the operational guide.
"""

from repro.fabric.coordinator import (
    FabricInterrupted,
    FabricReport,
    run_fabric,
)
from repro.fabric.drivers import WORK_KINDS, execute_cell, work_kind
from repro.fabric.hashing import FABRIC_SCHEMA, canonical_json, cell_key
from repro.fabric.queue import CellFailed, WorkQueue
from repro.fabric.store import ResultStore, StoreError

__all__ = [
    "FABRIC_SCHEMA",
    "CellFailed",
    "FabricInterrupted",
    "FabricReport",
    "ResultStore",
    "StoreError",
    "WORK_KINDS",
    "WorkQueue",
    "canonical_json",
    "cell_key",
    "execute_cell",
    "run_fabric",
    "work_kind",
]
