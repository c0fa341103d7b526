"""Adversarial scenarios on the simulator (timed counterpart of the proofs).

The lower-bound constructions in :mod:`repro.lowerbounds` realize the
proofs' executions by *delivery order*.  This module re-enacts the same
scenarios with actual virtual-time delays, demonstrating the quantitative
side of Lemma 2.3/2.4's argument: if every channel of a victim process is
slower than ``2·δ·D`` (``δ`` = fast-channel delay bound, ``D`` = the worst
diameter among one-vertex-removed subgraphs), then flooding completes among
the other ``n-1`` processes strictly before anything from or to the victim
arrives.

:func:`slow_victim_flood` runs the flood and returns a
:class:`FloodTiming` whose fields verify exactly that separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.events import EventId
from repro.sim.network import ConstantDelay, PerChannelDelay
from repro.sim.runner import Simulation, SimulationResult
from repro.sim.workload import (
    BroadcastWorkload,
    SimHandle,
    Workload,
    sorted_neighbors,
)
from repro.topology.graph import CommunicationGraph
from repro.topology.properties import adversary_diameter


class _AllInitiatorsFlood(Workload):
    """Every initiator floods one token; receivers forward once per token."""

    def __init__(self, initiators: List[int]) -> None:
        self.initiators = initiators
        self._victim: Optional[int] = None

    def set_victim(self, victim: int) -> None:
        self._victim = victim

    def setup(self, sim: SimHandle) -> None:
        self._token_of_msg: Dict[int, int] = {}
        self._neighbors = sorted_neighbors(sim.graph)
        self._have: Dict[int, Set[int]] = {
            p: set() for p in sim.graph.vertices()
        }
        #: time at which each process completed the non-victim token set
        self.completion_time: Dict[int, float] = {}
        self._needed: Set[int] = set(self.initiators)
        if self._victim is not None:
            self._needed.discard(self._victim)
        for p in self.initiators:
            self._have[p].add(p)
            sim.schedule(1e-9, self._broadcast, sim, p, p, None)

    def _broadcast(
        self, sim: SimHandle, proc: int, token: int, came_from: Optional[int]
    ) -> None:
        for q in self._neighbors[proc]:
            if q != came_from:
                ev = sim.do_send(proc, q)
                assert ev is not None and ev.msg_id is not None
                self._token_of_msg[ev.msg_id] = token

    def on_deliver(self, sim, msg, recv) -> None:
        token = self._token_of_msg.get(msg.msg_id)
        if token is None:
            return
        first = token not in self._have[msg.dst]
        self._have[msg.dst].add(token)
        if (
            msg.dst not in self.completion_time
            and self._needed <= self._have[msg.dst]
        ):
            self.completion_time[msg.dst] = sim.now
        if first:
            sim.schedule(1e-9, self._broadcast, sim, msg.dst, token, msg.src)


@dataclass(frozen=True)
class FloodTiming:
    """Timing evidence for the slow-channel argument."""

    victim: int
    delta: float
    diameter: float
    #: completion times of the non-victim processes (all non-victim tokens)
    completion_times: Dict[int, float]
    #: earliest arrival of ANY message on a victim channel (None = never)
    first_victim_contact: Optional[float]
    result: SimulationResult

    @property
    def flood_bound(self) -> float:
        """The proof's ``δ·D`` flooding-completion bound."""
        return self.delta * self.diameter

    @property
    def separation_holds(self) -> bool:
        """Everyone (≠ victim) completes before any victim contact."""
        if not self.completion_times:
            return False
        last_completion = max(self.completion_times.values())
        if self.first_victim_contact is None:
            return True
        return last_completion < self.first_victim_contact


def slow_victim_flood(
    graph: CommunicationGraph,
    victim: int,
    delta: float = 1.0,
    seed: int = 0,
) -> FloodTiming:
    """Run the Lemma-2.3 flood with real delays and a slowed victim.

    Fast channels have constant delay *delta*; every channel incident to
    *victim* gets delay ``2·δ·D + δ`` (strictly beyond the proof's bound).
    Returns timing evidence that all other processes complete the flood
    before the victim influences — or hears — anything.
    """
    n = graph.n_vertices
    if not 0 <= victim < n:
        raise ValueError("victim out of range")
    diameter = adversary_diameter(graph, {victim})
    delays = PerChannelDelay(ConstantDelay(delta))
    slow = 2.0 * delta * diameter + delta
    delays.slow_down_process(victim, n, slow)

    workload = _AllInitiatorsFlood(list(range(n)))
    workload.set_victim(victim)
    sim = Simulation(graph, seed=seed, delay_model=delays)
    result = sim.run(workload)

    first_contact: Optional[float] = None
    for msg in result.execution.messages:
        if msg.recv_event is None:
            continue
        if victim in (msg.src, msg.dst):
            t = result.event_times[msg.recv_event]
            if first_contact is None or t < first_contact:
                first_contact = t

    completion = {
        p: t for p, t in workload.completion_time.items() if p != victim
    }
    return FloodTiming(
        victim=victim,
        delta=delta,
        diameter=float(diameter),
        completion_times=completion,
        first_victim_contact=first_contact,
        result=result,
    )
