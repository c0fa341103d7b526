"""Detection latency: when does a predicate become detectable?

The paper's Section-6 argument is temporal: with inline timestamps a
predicate is detected on the finalized cut, so detection may *lag* the
online answer, but "if the predicate of interest becomes true, it would be
detected eventually".  This module measures that lag on simulation results:

- **online knowledge** at virtual time ``t``: all events that occurred by
  ``t`` (what a vector-clock-based checker sees);
- **inline knowledge** at ``t``: all events whose inline timestamps were
  finalized by ``t``.

:func:`first_detection_time` replays the corresponding notification stream
and returns the earliest time the weak conjunctive predicate is detectable;
:func:`detection_lag` packages the online/inline comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.applications.predicate import PredicateMarks, detect_conjunctive
from repro.core.events import EventId
from repro.core.happened_before import HappenedBeforeOracle
from repro.sim.runner import SimulationResult


def _knowledge_stream(
    result: SimulationResult, clock_name: Optional[str]
) -> List[Tuple[float, EventId]]:
    """(time, event) notifications: occurrences (online) or finalizations."""
    if clock_name is None:
        pairs = list(result.event_times.items())
    else:
        pairs = list(result.finalization_times[clock_name].items())
    return sorted(((t, eid) for eid, t in pairs), key=lambda x: (x[0], x[1]))


def first_detection_time(
    result: SimulationResult,
    marks: PredicateMarks,
    clock_name: Optional[str] = None,
    oracle: Optional[HappenedBeforeOracle] = None,
) -> Optional[float]:
    """Earliest virtual time the predicate is detectable, or ``None``.

    *clock_name* = ``None`` measures online knowledge (events count as
    known when they occur); a clock name measures inline knowledge (events
    count when that clock finalizes them).  Comparisons use the ground
    truth, which finalized characterizing timestamps agree with.
    """
    if oracle is None:
        oracle = HappenedBeforeOracle(result.execution)
    all_marked: Set[EventId] = {
        EventId(p, i) for p, idxs in marks.items() for i in idxs
    }
    known: Set[EventId] = set()
    for t, eid in _knowledge_stream(result, clock_name):
        known.add(eid)
        if eid not in all_marked:
            continue
        pruned = {
            p: [i for i in idxs if EventId(p, i) in known]
            for p, idxs in marks.items()
        }
        if any(not idxs for idxs in pruned.values()):
            continue
        outcome = detect_conjunctive(oracle.happened_before, pruned)
        if outcome.found:
            return t
    return None


@dataclass(frozen=True)
class DetectionLag:
    """Online vs inline first-detection comparison."""

    online_time: Optional[float]
    inline_time: Optional[float]

    @property
    def both_detected(self) -> bool:
        return self.online_time is not None and self.inline_time is not None

    @property
    def lag(self) -> Optional[float]:
        """Extra virtual time the inline detector needed (None if either
        side never detected)."""
        if not self.both_detected:
            return None
        return self.inline_time - self.online_time  # type: ignore[operator]


def detection_lag(
    result: SimulationResult,
    marks: PredicateMarks,
    clock_name: str,
) -> DetectionLag:
    """Compare first-detection times of the same predicate.

    Invariants (asserted in tests): the inline detector never detects
    *earlier* than the online one, never detects something the online one
    would not, and — when every relevant event eventually finalizes —
    always catches up (the paper's "detected eventually").
    """
    oracle = HappenedBeforeOracle(result.execution)
    online = first_detection_time(result, marks, None, oracle)
    inline = first_detection_time(result, marks, clock_name, oracle)
    return DetectionLag(online_time=online, inline_time=inline)
