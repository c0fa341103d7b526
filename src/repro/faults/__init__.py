"""Structured fault injection and the chaos harness.

:mod:`repro.faults.models` provides pluggable fault models — bursty
(Gilbert–Elliott) loss, message duplication, healing partitions, and
crash-stop / crash-recovery schedules — that
:class:`repro.sim.runner.Simulation` consults per message and per liveness
query.  :mod:`repro.faults.chaos` sweeps fault scenarios × clock algorithms
and asserts the correctness invariants (timestamps agree with
happened-before on the surviving execution; finalized timestamps survive
crash checkpoints).  The at-least-once control transport these scenarios
exercise lives in :mod:`repro.sim.network`
(:class:`~repro.sim.network.ReliableLink`); the clocks refuse the control
copies it and the fault models deliver twice.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "chaos": (
        "ROW_HEADER", "ChaosCell", "ChaosReport", "ChaosScenario", "default_scenarios",
        "run_chaos",
    ),
    "models": (
        "DELIVER", "DROP", "NEVER", "CompositeFault", "CrashSchedule",
        "DuplicationFault", "FaultModel", "GilbertElliottLoss", "MessageFate",
        "PartitionFault",
    ),
}

if TYPE_CHECKING:
    from repro.faults.chaos import (
        ROW_HEADER as ROW_HEADER, ChaosCell as ChaosCell, ChaosReport as ChaosReport,
        ChaosScenario as ChaosScenario, default_scenarios as default_scenarios,
        run_chaos as run_chaos,
    )
    from repro.faults.models import (
        DELIVER as DELIVER, DROP as DROP, NEVER as NEVER,
        CompositeFault as CompositeFault, CrashSchedule as CrashSchedule,
        DuplicationFault as DuplicationFault, FaultModel as FaultModel,
        GilbertElliottLoss as GilbertElliottLoss, MessageFate as MessageFate,
        PartitionFault as PartitionFault,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
