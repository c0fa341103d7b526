"""Transport-reliability accounting for faulty simulation runs.

Condenses the fault-injection and reliable-control-transport counters a
:class:`~repro.sim.runner.SimulationResult` collects into one summary per
algorithm, for tables (``repro chaos``) and assertions (E16).  The
interesting derived quantity is :attr:`ReliabilitySummary.delivery_success`:
the fraction of control messages that were eventually delivered (not
abandoned), which bounds how much finalization can happen during the run
rather than at termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.runner import SimulationResult


@dataclass(frozen=True)
class ReliabilitySummary:
    """Fault/transport counters for one algorithm in one run."""

    control_messages: int
    retransmissions: int
    duplicates_suppressed: int
    acks: int
    abandoned: int
    dropped_app: int
    dropped_control: int
    duplicate_app_deliveries: int
    crash_dropped_app: int
    suppressed_events: int

    @property
    def delivery_success(self) -> float:
        """Fraction of control messages not abandoned by the transport."""
        if self.control_messages == 0:
            return 1.0
        return 1.0 - self.abandoned / self.control_messages


def summarize_reliability(
    result: SimulationResult, clock_name: str
) -> ReliabilitySummary:
    """Collect the reliability counters relevant to *clock_name*."""
    stats = result.stats[clock_name]
    return ReliabilitySummary(
        control_messages=stats.control_messages,
        retransmissions=stats.control_retransmissions,
        duplicates_suppressed=stats.control_duplicates_suppressed,
        acks=stats.control_acks,
        abandoned=stats.control_abandoned,
        dropped_app=result.dropped_app_messages,
        dropped_control=result.dropped_control_messages,
        duplicate_app_deliveries=result.duplicate_app_deliveries,
        crash_dropped_app=result.crash_dropped_app_messages,
        suppressed_events=result.suppressed_events,
    )
