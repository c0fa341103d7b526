"""Deterministic replay from timestamps (paper Section 6).

Replay/debugging tools re-execute a distributed computation in some total
order consistent with causality.  Any timestamp scheme that captures
happened-before yields such an order without consulting the original
execution: sort the events so that ``ts_e.precedes(ts_f)`` implies ``e``
comes first.

:func:`replay_schedule` builds the order purely from a
:class:`~repro.clocks.replay.TimestampAssignment` (no oracle access) and
:func:`is_causal_schedule` independently verifies the result against the
ground truth — including that receives come after their sends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle


def replay_schedule(
    assignment: TimestampAssignment,
    events: Optional[Sequence[EventId]] = None,
) -> List[EventId]:
    """A total order of *events* consistent with the timestamps.

    Kahn-style topological sort over the comparison relation, with a
    deterministic tie-break (process id, then index) among currently
    enabled events.  Requires every event to have a (finalized) timestamp in
    the assignment.  O(k²) comparisons for k events.
    """
    ids = (
        list(events)
        if events is not None
        else [ev.eid for ev in assignment.execution.all_events()]
    )
    for e in ids:
        if e not in assignment:
            raise ValueError(f"{e} has no finalized timestamp; cannot replay")

    indegree: Dict[EventId, int] = {e: 0 for e in ids}
    successors: Dict[EventId, List[EventId]] = {e: [] for e in ids}
    for i, e in enumerate(ids):
        for f in ids[i + 1 :]:
            if assignment.precedes(e, f):
                successors[e].append(f)
                indegree[f] += 1
            elif assignment.precedes(f, e):
                successors[f].append(e)
                indegree[e] += 1

    ready = sorted(
        (e for e in ids if indegree[e] == 0),
        key=lambda e: (e.proc, e.index),
    )
    order: List[EventId] = []
    while ready:
        e = ready.pop(0)
        order.append(e)
        newly = []
        for f in successors[e]:
            indegree[f] -= 1
            if indegree[f] == 0:
                newly.append(f)
        if newly:
            ready.extend(newly)
            ready.sort(key=lambda x: (x.proc, x.index))
    if len(order) != len(ids):
        raise ValueError("timestamp comparison contains a cycle")
    return order


def is_causal_schedule(
    execution: Execution,
    order: Sequence[EventId],
) -> bool:
    """Ground-truth check that *order* is a valid replay schedule.

    Valid means: it is a permutation of the given events, process-local
    order is respected, and every receive appears after its send (whenever
    both are present).  Equivalently, it is a linear extension of
    happened-before restricted to the listed events.
    """
    oracle = HappenedBeforeOracle(execution)
    listed = set(order)
    if len(listed) != len(order):
        return False
    pos = {e: i for i, e in enumerate(order)}
    for e in order:
        if e not in execution:
            return False
    for i, e in enumerate(order):
        for f in order[i + 1 :]:
            if oracle.happened_before(f, e):
                return False
    # receives after sends even if only one endpoint is listed is vacuous;
    # both-listed pairs were covered by the loop above via happened-before.
    return True
