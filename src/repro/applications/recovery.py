"""Checkpointing and rollback recovery with inline timestamps (Section 1/6).

Processes take checkpoints periodically; after a failure the system rolls
back to a *recovery line*: the latest consistent cut whose per-process
frontier is a checkpoint (or the initial state).  Computing the line needs
causality information.

- With **online** vector clocks, every event that occurred before the
  failure is usable.
- With **inline** timestamps, the paper's recipe applies: ignore events
  whose timestamps are not yet finalized.  "This would cause the recovery
  line to be somewhat earlier than that achievable by online timestamps.
  However, as long as the timestamps become finalized quickly, this change
  would be negligible."  :func:`recovery_line_lag` measures exactly that
  gap.

The rollback computation itself is the classic domino iteration: start at
each process's latest admissible checkpoint and demote any process whose
checkpoint depends on an event beyond the current cut, until consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.cuts import (
    Cut,
    allowed_prefixes,
    cut_size,
    first_inconsistent,
    full_cut,
)
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import AnyOracle
from repro.sim.runner import SimulationResult


def periodic_checkpoints(
    execution: Execution, every_k: int
) -> Dict[int, List[int]]:
    """Checkpoint positions: after every *every_k*-th event at each process.

    Returned values are prefix counts (0 = initial state is always an
    implicit checkpoint and is not listed).
    """
    if every_k < 1:
        raise ValueError("every_k must be >= 1")
    out: Dict[int, List[int]] = {}
    for p in range(execution.n_processes):
        n_events = len(execution.events_at(p))
        out[p] = list(range(every_k, n_events + 1, every_k))
    return out


def recovery_line(
    oracle: AnyOracle,
    checkpoints: Dict[int, List[int]],
    allowed: Optional[Callable[[EventId], bool]] = None,
) -> Cut:
    """The latest consistent cut through admissible checkpoints.

    A checkpoint at prefix ``k`` of process ``p`` is admissible when every
    event in that prefix satisfies *allowed* (default: everything).  The
    returned cut's entries are always admissible checkpoint positions or 0.

    Implementation: domino iteration.  Start from each process's largest
    admissible checkpoint; while the cut is inconsistent, demote the
    offending process to its next lower admissible checkpoint.  The cut
    decreases monotonically, so this terminates; the result is the maximum
    checkpointed consistent cut (the set of such cuts is a lattice, and we
    only ever demote when forced).
    """
    counts = full_cut(oracle)
    longest = counts if allowed is None else allowed_prefixes(oracle, allowed)
    options: List[List[int]] = []
    for p, count in enumerate(counts):
        positions = checkpoints.get(p, [])
        for k in positions:
            if not 0 < k <= count:
                raise ValueError(f"checkpoint {k} out of range at process {p}")
        options.append([0] + [k for k in positions if k <= longest[p]])
    level = [len(opts) - 1 for opts in options]
    while True:
        cut = tuple(opts[lv] for opts, lv in zip(options, level))
        p = first_inconsistent(oracle, cut)
        if p is None:
            return cut
        level[p] -= 1  # p's cut[p] > 0, so a lower option exists


@dataclass(frozen=True)
class RecoveryComparison:
    """Recovery lines computed with online vs inline knowledge."""

    failure_time: float
    online_line: Cut
    inline_line: Cut

    @property
    def online_events(self) -> int:
        return cut_size(self.online_line)

    @property
    def inline_events(self) -> int:
        return cut_size(self.inline_line)

    @property
    def lag_events(self) -> int:
        """Extra events lost by recovering from inline knowledge only."""
        return self.online_events - self.inline_events


def recovery_line_lag(
    result: SimulationResult,
    clock_name: str,
    failure_time: float,
    every_k: int = 5,
    oracle: Optional[HappenedBeforeOracle] = None,
) -> RecoveryComparison:
    """Compare online vs inline recovery lines at a failure instant.

    Online knowledge = all events that occurred by *failure_time*.  Inline
    knowledge = events whose *clock_name* timestamps were finalized by then
    (a subset).  Both recovery lines roll back to periodic checkpoints taken
    every *every_k* events.
    """
    execution = result.execution
    if oracle is None:
        oracle = HappenedBeforeOracle(execution)
    checkpoints = periodic_checkpoints(execution, every_k)
    event_times = result.event_times
    fin_times = result.finalization_times[clock_name]

    def occurred(eid: EventId) -> bool:
        return event_times[eid] <= failure_time

    def finalized(eid: EventId) -> bool:
        t = fin_times.get(eid)
        return t is not None and t <= failure_time and occurred(eid)

    online = recovery_line(oracle, checkpoints, allowed=occurred)
    inline = recovery_line(oracle, checkpoints, allowed=finalized)
    return RecoveryComparison(
        failure_time=failure_time, online_line=online, inline_line=inline
    )
