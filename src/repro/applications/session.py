"""A time-travel analysis session over a finished simulation.

High-level facade combining the Section-6 machinery: given a
:class:`~repro.sim.runner.SimulationResult` and an inline clock's name, an
:class:`AnalysisSession` answers "what did the monitor know at virtual time
``t``?" —

- the finalized consistent cut at ``t`` (incremental monitor replay);
- the execution frontier at ``t`` (what online clocks would know);
- the recovery line computable at ``t`` from inline knowledge;
- whether a conjunctive predicate was detectable at ``t``.

Snapshots are resolved by binary search over the precomputed notification
timeline, so repeated queries are cheap.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List

from repro.applications.monitor import CutSample, cut_evolution
from repro.applications.predicate import (
    DetectionResult,
    PredicateMarks,
    detect_conjunctive,
)
from repro.applications.recovery import periodic_checkpoints, recovery_line
from repro.core.cuts import Cut, cut_size
from repro.core.happened_before import HappenedBeforeOracle
from repro.sim.runner import SimulationResult


@dataclass(frozen=True)
class Snapshot:
    """What the inline monitor knew at one instant."""

    time: float
    finalized_cut: Cut
    occurred_events: int

    @property
    def finalized_events(self) -> int:
        return cut_size(self.finalized_cut)

    @property
    def knowledge_gap(self) -> int:
        """Events that occurred but are not yet usable for analysis."""
        return self.occurred_events - self.finalized_events


class AnalysisSession:
    """Query a run's inline knowledge at any virtual time."""

    def __init__(self, result: SimulationResult, clock_name: str) -> None:
        if clock_name not in result.assignments:
            raise KeyError(f"no clock named {clock_name!r} in this run")
        self._result = result
        self._clock_name = clock_name
        self._oracle = HappenedBeforeOracle(result.execution)
        self._samples: List[CutSample] = cut_evolution(result, clock_name)
        self._sample_times = [s.time for s in self._samples]

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return self._result.duration

    @property
    def oracle(self) -> HappenedBeforeOracle:
        return self._oracle

    def snapshot(self, t: float) -> Snapshot:
        """The monitor's state at virtual time *t* (after all notifications
        with time ≤ t)."""
        idx = bisect.bisect_right(self._sample_times, t) - 1
        if idx < 0:
            n = self._result.execution.n_processes
            return Snapshot(time=t, finalized_cut=(0,) * n, occurred_events=0)
        s = self._samples[idx]
        return Snapshot(
            time=t, finalized_cut=s.cut, occurred_events=s.events_occurred
        )

    # ------------------------------------------------------------------
    def recovery_line_at(self, t: float, every_k: int = 5) -> Cut:
        """The recovery line computable from inline knowledge at *t*."""
        cut = self.snapshot(t).finalized_cut
        checkpoints = periodic_checkpoints(self._result.execution, every_k)
        return recovery_line(
            self._oracle, checkpoints, allowed=lambda e: e.index <= cut[e.proc]
        )

    def detect_at(self, t: float, marks: PredicateMarks) -> DetectionResult:
        """Conjunctive detection restricted to the cut finalized by *t*."""
        cut = self.snapshot(t).finalized_cut
        pruned = {
            p: [i for i in idxs if i <= cut[p]] for p, idxs in marks.items()
        }
        if any(not idxs for idxs in pruned.values()):
            return DetectionResult(found=False, witness=None, steps=0)
        return detect_conjunctive(self._oracle.happened_before, pruned)

    def knowledge_curve(self, n_points: int = 10) -> List[Snapshot]:
        """Evenly spaced snapshots across the run."""
        if n_points < 2:
            raise ValueError("need at least 2 points")
        return [
            self.snapshot(self.duration * i / (n_points - 1))
            for i in range(n_points)
        ]
