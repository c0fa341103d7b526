"""Workload policies driving the simulator.

A workload decides *which* events processes generate and *when*; the
simulator owns the mechanics (event creation, clock hooks, message
transport).  Workloads interact with the simulation through the narrow
:class:`SimHandle` API and two hooks:

- :meth:`Workload.setup` — schedule initial activity;
- :meth:`Workload.on_deliver` — react to a delivered application message
  (e.g. a server replying to a request).

Provided policies:

- :class:`UniformWorkload` — each process independently performs a budget of
  actions at exponential inter-arrival times; each action is a local step or
  a send to a uniformly random neighbour.  The bread-and-butter workload for
  the size and correctness experiments.
- :class:`ClientServerWorkload` — non-cover processes issue requests to
  random cover neighbours; cover processes reply with probability
  ``reply_prob``.  Mirrors the client/server pattern of the paper's Figure 4
  discussion and produces the round trips that finalize inline timestamps.
- :class:`BroadcastWorkload` — one initiator floods via its neighbours
  (receivers forward once); a stress test for deep causal chains.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.events import Event, Message, ProcessId
from repro.topology.graph import CommunicationGraph


class SimHandle(Protocol):
    """The surface of the simulator a workload may touch."""

    @property
    def graph(self) -> CommunicationGraph: ...

    @property
    def rng(self) -> random.Random: ...

    @property
    def now(self) -> float: ...

    def do_local(self, proc: ProcessId) -> Optional[Event]: ...

    def do_send(self, src: ProcessId, dst: ProcessId) -> Optional[Event]: ...

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* units of virtual time."""


def sorted_neighbors(graph: CommunicationGraph) -> Dict[ProcessId, List[ProcessId]]:
    """Every vertex's neighbours in ascending order.

    The graph is fixed for a run, so workloads that pick or iterate
    neighbours deterministically sort them once, in ``setup()``.
    """
    return {p: sorted(graph.neighbors(p)) for p in graph.vertices()}


class Workload(abc.ABC):
    """Base class for workload policies."""

    @abc.abstractmethod
    def setup(self, sim: SimHandle) -> None:
        """Schedule the initial activity."""

    def on_deliver(self, sim: SimHandle, msg: Message, recv: Event) -> None:
        """Hook invoked after each application-message delivery."""


class UniformWorkload(Workload):
    """Independent Poisson-style activity at every process.

    Parameters
    ----------
    events_per_process:
        Number of *initiated* actions per process (receives are extra).
    rate:
        Mean actions per unit time per process.
    p_local:
        Probability an action is a local event (the rest are sends to a
        uniformly random neighbour; isolated processes only do local steps).

    Each process's first action time is uniform in ``[0, 1/rate]``.
    """

    def __init__(
        self,
        events_per_process: int = 20,
        rate: float = 1.0,
        p_local: float = 0.3,
    ) -> None:
        if events_per_process < 0:
            raise ValueError("events_per_process must be >= 0")
        if not 0 < rate < math.inf:  # NaN too
            raise ValueError("rate must be positive and finite")
        if not 0.0 <= p_local <= 1.0:
            raise ValueError("p_local must be a probability")
        self.events_per_process = events_per_process
        self.rate = rate
        self.p_local = p_local

    def setup(self, sim: SimHandle) -> None:
        self._rng = sim.rng
        self._neighbors = sorted_neighbors(sim.graph)
        if self.events_per_process > 0:
            for p in sim.graph.vertices():
                delay = self._rng.uniform(0.0, 1.0 / self.rate) + 1e-9
                sim.schedule(delay, self._act, sim, p, self.events_per_process)

    def _act(self, sim: SimHandle, p: ProcessId, budget: int) -> None:
        neighbors = self._neighbors[p]
        if not neighbors or self._rng.random() < self.p_local:
            sim.do_local(p)
        else:
            sim.do_send(p, self._rng.choice(neighbors))
        if budget > 1:
            delay = self._rng.expovariate(self.rate) + 1e-9
            sim.schedule(delay, self._act, sim, p, budget - 1)


class ClientServerWorkload(Workload):
    """Clients request, servers probabilistically reply.

    *servers* defaults to a vertex cover of the graph, making every other
    process a client of its cover neighbours — the natural workload for the
    inline algorithm, whose timestamps finalize exactly when such round
    trips complete.
    """

    def __init__(
        self,
        requests_per_client: int = 10,
        rate: float = 1.0,
        reply_prob: float = 1.0,
        servers: Optional[Sequence[ProcessId]] = None,
    ) -> None:
        if requests_per_client < 0:
            raise ValueError("requests_per_client must be >= 0")
        if not 0 < rate < math.inf:  # NaN too
            raise ValueError("rate must be positive and finite")
        if not 0.0 <= reply_prob <= 1.0:
            raise ValueError("reply_prob must be a probability")
        self.requests_per_client = requests_per_client
        self.rate = rate
        self.reply_prob = reply_prob
        self.servers = servers

    def setup(self, sim: SimHandle) -> None:
        self._rng = sim.rng
        if self.servers is None:
            from repro.topology.vertex_cover import best_cover

            self._server_set: Set[ProcessId] = set(best_cover(sim.graph))
        else:
            self._server_set = set(self.servers)
        #: per client, the servers it may call, in the deterministic order
        #: its rng.choice draws index into
        self._targets: Dict[ProcessId, List[ProcessId]] = {
            p: [v for v in neighbors if v in self._server_set]
            for p, neighbors in sorted_neighbors(sim.graph).items()
            if p not in self._server_set
        }
        for p in self._targets:
            self._schedule_request(sim, p, self.requests_per_client)

    def _schedule_request(
        self, sim: SimHandle, client: ProcessId, budget: int
    ) -> None:
        if budget > 0:
            delay = self._rng.expovariate(self.rate) + 1e-9
            sim.schedule(delay, self._request, sim, client, budget)

    def _request(self, sim: SimHandle, client: ProcessId, budget: int) -> None:
        targets = self._targets[client]
        if targets:
            sim.do_send(client, self._rng.choice(targets))
        else:
            sim.do_local(client)
        self._schedule_request(sim, client, budget - 1)

    def on_deliver(self, sim: SimHandle, msg: Message, recv: Event) -> None:
        if msg.dst in self._server_set and msg.src not in self._server_set:
            if self._rng.random() < self.reply_prob:
                reply_delay = self._rng.expovariate(self.rate * 4) + 1e-9
                sim.schedule(reply_delay, sim.do_send, msg.dst, msg.src)


class BroadcastWorkload(Workload):
    """Flood from *initiator*: every process forwards on first receipt.

    Creates the long causal chains used to stress ``pre`` propagation.  Each
    process forwards at most once (to all neighbours except the one it heard
    from), so the flood terminates.
    """

    def __init__(self, initiator: ProcessId = 0, rounds: int = 1) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.initiator = initiator
        self.rounds = rounds

    def setup(self, sim: SimHandle) -> None:
        self._forwarded: Set[Tuple[int, ProcessId]] = set()
        self._round_of_msg: Dict[int, int] = {}
        self._neighbors = sorted_neighbors(sim.graph)
        for r in range(self.rounds):
            self._forwarded.add((r, self.initiator))
            delay = float(r) + 1e-9
            sim.schedule(delay, self._flood, sim, r, self.initiator, None)

    def _flood(
        self,
        sim: SimHandle,
        round_id: int,
        p: ProcessId,
        heard_from: Optional[ProcessId],
    ) -> None:
        for q in self._neighbors[p]:
            if q != heard_from:
                ev = sim.do_send(p, q)
                if ev is None:  # p is crashed; fault injection active
                    return
                assert ev.msg_id is not None
                self._round_of_msg[ev.msg_id] = round_id

    def on_deliver(self, sim: SimHandle, msg: Message, recv: Event) -> None:
        round_id = self._round_of_msg.get(msg.msg_id)
        if round_id is None:
            return
        key = (round_id, msg.dst)
        if key in self._forwarded:
            return
        self._forwarded.add(key)
        sim.schedule(1e-9, self._flood, sim, round_id, msg.dst, msg.src)
