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

from repro.faults.chaos import (
    ROW_HEADER,
    ChaosCell,
    ChaosReport,
    ChaosScenario,
    default_scenarios,
    run_chaos,
)
from repro.faults.models import (
    DELIVER,
    DROP,
    NEVER,
    CompositeFault,
    CrashSchedule,
    DuplicationFault,
    FaultModel,
    GilbertElliottLoss,
    MessageFate,
    PartitionFault,
)

__all__ = [
    "ROW_HEADER",
    "ChaosCell",
    "ChaosReport",
    "ChaosScenario",
    "default_scenarios",
    "run_chaos",
    "DELIVER",
    "DROP",
    "NEVER",
    "CompositeFault",
    "CrashSchedule",
    "DuplicationFault",
    "FaultModel",
    "GilbertElliottLoss",
    "MessageFate",
    "PartitionFault",
]
