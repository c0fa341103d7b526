"""Crash-recovery supervision for live nodes.

The simulator models crash-recovery by checkpointing clock state at crash
instants and asserting *checkpoint permanence* — a timestamp that was final
when the snapshot was taken must read back identically from a restored
instance (:func:`repro.faults.chaos._checkpoint_permanence_ok`).  The
:class:`Supervisor` is the live-network counterpart:

- :meth:`Supervisor.kill` crashes a node abruptly: its RPC server stops
  accepting, every connection drops, and in-flight handler tasks are
  cancelled (never answered, never cached).  At the crash instant the
  supervisor snapshots the node's *durable* state (for a server: replica,
  commit log, version counters, and the commit dedup table) together with
  every (event, timestamp) pair the shared clock holds final.
- :meth:`Supervisor.restart` builds a fresh node object from the registered
  factory, restores the durable snapshot into it, and starts it on a new
  ephemeral port.  Peers find it again automatically because
  :class:`~repro.net.transport.PeerClient` re-resolves the address book on
  every reconnect attempt — rejoining the mesh needs no announcement.
- :meth:`Supervisor.verify_permanence` checks, once the run is over, that
  each event finalized by a crash instant still reads back from the live
  clock with its exact timestamp — the permanence invariant, now on real
  sockets.

Graceful degradation of a *slow* (not dead) sequencer is the other half of
the robustness story: :meth:`Supervisor.set_slow` injects a per-response
delay into a node, and clients fail over to their backup sequencer when the
slow path exceeds their retry budget — progress rides the healthy route
while delayed finalization lets the slow path's metadata catch up later,
the paper's core mechanism.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.events import EventId
from repro.net.node import LiveClockHost, LiveNode
from repro.obs import counter

NodeFactory = Callable[[], LiveNode]


@dataclass
class CrashSnapshot:
    """Everything recorded at one kill instant."""

    pid: int
    node_state: Dict[str, Any]
    finalized: List[Tuple[EventId, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class CrashPlan:
    """A scripted mid-run crash: kill *pid* once *after_ops* operations have
    completed, keep it down for *downtime* seconds, then restart it."""

    pid: int
    after_ops: int
    downtime: float = 0.5

    def __post_init__(self) -> None:
        if self.after_ops < 0:
            raise ValueError("after_ops must be >= 0")
        if self.downtime < 0:
            raise ValueError("downtime must be >= 0")


class Supervisor:
    """Owns node lifecycles for one live deployment."""

    def __init__(self, clock_host: Optional[LiveClockHost] = None) -> None:
        self._factories: Dict[int, NodeFactory] = {}
        self.nodes: Dict[int, LiveNode] = {}
        self.clock_host = clock_host
        self.snapshots: List[CrashSnapshot] = []

    # -- registration / lifecycle --------------------------------------
    def register(self, pid: int, factory: NodeFactory) -> None:
        self._factories[pid] = factory

    async def start_all(self) -> None:
        for pid, factory in sorted(self._factories.items()):
            node = factory()
            self.nodes[pid] = node
            await node.start()

    async def stop_all(self) -> None:
        for node in self.nodes.values():
            await node.stop()

    # -- crash-recovery -------------------------------------------------
    async def kill(self, pid: int) -> CrashSnapshot:
        """Crash *pid* now, snapshotting its durable state and final stamps."""
        node = self.nodes[pid]
        snapshot = CrashSnapshot(pid=pid, node_state=node.checkpoint_state())
        if self.clock_host is not None:
            snapshot.finalized = self.clock_host.finalized_events()
        self.snapshots.append(snapshot)
        await node.kill()
        return snapshot

    async def restart(self, pid: int, snapshot: Optional[CrashSnapshot] = None) -> LiveNode:
        """Recreate *pid* from its latest (or the given) snapshot."""
        if snapshot is None:
            candidates = [s for s in self.snapshots if s.pid == pid]
            if not candidates:
                raise ValueError(f"no crash snapshot recorded for p{pid}")
            snapshot = candidates[-1]
        node = self._factories[pid]()
        node.restore_state(snapshot.node_state)
        self.nodes[pid] = node
        await node.start()  # fresh ephemeral port; peers re-resolve
        counter("net.restarts").inc()
        return node

    async def crash_and_restart(self, pid: int, downtime: float) -> LiveNode:
        await self.kill(pid)
        await asyncio.sleep(downtime)
        return await self.restart(pid)

    # -- degradation ------------------------------------------------------
    def set_slow(self, pid: int, delay: float) -> None:
        """Make *pid* answer every request *delay* seconds late (0 heals)."""
        self.nodes[pid].response_delay = delay

    # -- invariants -------------------------------------------------------
    def verify_permanence(self) -> List[str]:
        """Checkpoint-permanence audit over every recorded crash.

        Call it, on a supervisor with a clock host, after the clock's
        termination flush.  Every event that was final at a crash instant
        must still read back the timestamp it had then: finality means
        permanence, so any difference is a correctness bug in the
        algorithm.  Returns human-readable problem strings (empty =
        invariant holds).
        """
        problems: List[str] = []
        clock = self.clock_host.clock
        for snapshot in self.snapshots:
            for eid, ts_then in snapshot.finalized:
                ts_now = clock.timestamp(eid)  # None: no longer final
                if ts_now != ts_then:
                    problems.append(
                        f"crash@p{snapshot.pid}: {eid} timestamp changed "
                        f"{ts_then} -> {ts_now} after the crash"
                    )
        return problems
