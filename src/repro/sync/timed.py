"""Timed simulation of synchronous computations (rendezvous semantics).

Synchronous messages block both endpoints (the paper's Figure 3: the sender
waits for the receiver's acknowledgement), so the natural timing model is a
*rendezvous*: a message between ``a`` and ``b`` occupies both processes
from ``max(ready_a, ready_b)`` until the handshake completes.  This module
schedules a random action sequence under that model and records, for the
component clock, when each event's timestamp becomes permanent — giving
the synchronous counterpart of experiment E8's finalization-latency story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.execution import Execution, ExecutionBuilder
from repro.sync.component_clock import ComponentSyncClock
from repro.sync.decomposition import Decomposition, best_decomposition
from repro.sync.model import Joint, handshake, internal_event
from repro.topology.graph import CommunicationGraph

#: how long an internal action occupies its process
INTERNAL_DURATION = 0.2
#: how long a handshake occupies both of its endpoints
HANDSHAKE_DURATION = 1.0


@dataclass(frozen=True)
class SyncSimResult:
    """A timed synchronous run with component-clock finalization times."""

    execution: Execution
    joints: Tuple[Joint, ...]  # the joint events in creation order
    decomposition: Decomposition
    event_times: Dict[int, float]  # uid -> completion time
    finalization_times: Dict[int, float]  # uid -> permanent-timestamp time
    duration: float

    def finalization_latencies(self) -> Dict[int, float]:
        return {
            uid: self.finalization_times[uid] - self.event_times[uid]
            for uid in self.finalization_times
        }

    def fraction_finalized_during_run(self) -> float:
        total = len(self.joints)
        return len(self.finalization_times) / total if total else 1.0


def simulate_sync(
    graph: CommunicationGraph,
    actions_per_process: int = 15,
    p_internal: float = 0.4,
    seed: int = 0,
    decomposition: Optional[Decomposition] = None,
) -> SyncSimResult:
    """Run a random synchronous workload under rendezvous timing.

    Each process performs *actions_per_process* actions.  An internal
    action occupies the process for ``INTERNAL_DURATION``; a message action
    picks a random neighbour and occupies **both** endpoints from the
    moment both are free until ``HANDSHAKE_DURATION`` later (the blocking
    send of Figure 3).  Message actions of busy partners simply wait —
    deterministic given *seed*.
    """
    if actions_per_process < 0:
        raise ValueError("actions_per_process must be >= 0")
    if decomposition is None:
        decomposition = best_decomposition(graph)
    rng = random.Random(seed)
    n = graph.n_vertices

    # pre-draw each process's action list for determinism
    plans: List[List[Optional[int]]] = []
    for p in range(n):
        plan: List[Optional[int]] = []
        neighbors = sorted(graph.neighbors(p))
        for _ in range(actions_per_process):
            if not neighbors or rng.random() < p_internal:
                plan.append(None)  # internal
            else:
                plan.append(rng.choice(neighbors))
        plans.append(plan)

    builder = ExecutionBuilder(n, graph=graph)
    joints: List[Joint] = []
    clock = ComponentSyncClock(decomposition)
    free = [0.0] * n
    cursor = [0] * n
    event_times: Dict[int, float] = {}
    finalization_times: Dict[int, float] = {}

    # greedy scheduler: repeatedly execute the enabled action with the
    # earliest possible completion time
    while True:
        best: Optional[Tuple[float, int]] = None  # (completion, proc)
        for p in range(n):
            if cursor[p] >= len(plans[p]):
                continue
            partner = plans[p][cursor[p]]
            if partner is None:
                completion = free[p] + INTERNAL_DURATION
            else:
                completion = max(free[p], free[partner]) + HANDSHAKE_DURATION
            if best is None or (completion, p) < best:
                best = (completion, p)
        if best is None:
            break
        completion, p = best
        partner = plans[p][cursor[p]]
        cursor[p] += 1
        free[p] = completion
        if partner is None:
            joints.append(internal_event(builder, p))
        else:
            free[partner] = completion
            joints.append(handshake(builder, p, partner))
        event_times[clock.record(p, partner)] = completion
        for uid in clock.drain_newly_finalized():
            finalization_times[uid] = completion

    duration = max(free) if n else 0.0
    return SyncSimResult(
        execution=builder.freeze(),
        joints=tuple(joints),
        decomposition=decomposition,
        event_times=event_times,
        finalization_times=finalization_times,
        duration=duration,
    )
