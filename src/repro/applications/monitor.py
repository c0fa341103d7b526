"""Incremental maintenance of the finalized consistent cut (Section 6).

The paper's recipe for using inline timestamps in applications: work inside
the largest consistent cut containing only events with finalized
timestamps, and let that cut grow as finalizations arrive.  This module
maintains the cut *incrementally* — O(1) amortized per notification —
instead of recomputing it from scratch (the ablation in DESIGN.md; the
benchmark compares both).

:class:`FinalizedCutMonitor` is a passive observer fed two notification
streams, in any causally sensible order:

- :meth:`on_event` — an event occurred (structure: kind and, for receives,
  the matching send);
- :meth:`on_finalized` — an event's timestamp became permanent.

An event *enters the cut* when (a) it is finalized, (b) its local
predecessor has entered, and (c) if it is a receive, its matching send has
entered.  Since happened-before is generated by exactly those two edge
types, the admitted set is always the **maximum** consistent cut within the
finalized events (verified against the oracle-based recomputation in the
tests).

:func:`cut_evolution` replays a finished simulation's notification streams
in virtual-time order and returns the cut's growth curve — the Section-6
picture of the analysis window trailing the execution frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cuts import Cut, cut_size
from repro.core.events import Event, EventId
from repro.sim.runner import SimulationResult


class FinalizedCutMonitor:
    """Incrementally tracks the maximal consistent finalized cut."""

    def __init__(self, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._n = n_processes
        self._cut: List[int] = [0] * n_processes
        #: events seen (structure known), keyed by id
        self._events: Dict[EventId, Event] = {}
        #: matching send for receive events
        self._send_of: Dict[EventId, EventId] = {}
        self._finalized: Set[EventId] = set()
        self._in_cut: Set[EventId] = set()
        #: receiving process of each send whose receive has been registered
        self._recv_proc_of_send: Dict[EventId, int] = {}

    # ------------------------------------------------------------------
    @property
    def cut(self) -> Cut:
        """The current maximal consistent finalized cut."""
        return tuple(self._cut)

    @property
    def events_in_cut(self) -> int:
        return sum(self._cut)

    # ------------------------------------------------------------------
    def on_event(self, ev: Event, send_eid: Optional[EventId] = None) -> None:
        """Register an event's structure.

        For receive events, *send_eid* identifies the matching send (hosts
        that observe an :class:`~repro.core.execution.Execution` can pass
        ``execution.send_of(ev).eid``).
        """
        if ev.eid in self._events:
            raise ValueError(f"duplicate event notification for {ev.eid}")
        if ev.is_receive:
            if send_eid is None:
                raise ValueError("receive events need their matching send")
            self._send_of[ev.eid] = send_eid
            self._recv_proc_of_send[send_eid] = ev.eid.proc
        elif send_eid is not None:
            raise ValueError("only receive events have a matching send")
        self._events[ev.eid] = ev
        self._try_advance(ev.eid.proc)

    def on_finalized(self, eid: EventId) -> None:
        """Mark an event's timestamp as permanent."""
        if eid in self._finalized:
            raise ValueError(f"duplicate finalization for {eid}")
        self._finalized.add(eid)
        self._try_advance(eid.proc)

    # ------------------------------------------------------------------
    def _admissible(self, eid: EventId) -> bool:
        if eid not in self._finalized or eid not in self._events:
            return False
        ev = self._events[eid]
        if ev.is_receive:
            return self._send_of[eid] in self._in_cut
        return True

    def _try_advance(self, proc: int) -> None:
        """Worklist fixpoint: advance frontiers, cascading through sends.

        Admitting an event can only unblock (a) the next event of the same
        process — handled by the inner loop — and (b) the receive of an
        admitted send, whose process is enqueued.
        """
        queue: List[int] = [proc]
        while queue:
            p = queue.pop()
            while True:
                nxt = EventId(p, self._cut[p] + 1)
                if not self._admissible(nxt):
                    break
                self._cut[p] += 1
                self._in_cut.add(nxt)
                recv_proc = self._recv_proc_of_send.get(nxt)
                if recv_proc is not None and recv_proc != p:
                    queue.append(recv_proc)


@dataclass(frozen=True)
class CutSample:
    """One point of the cut-growth curve."""

    time: float
    cut: Cut
    events_in_cut: int
    events_occurred: int


def cut_evolution(
    result: SimulationResult, clock_name: str
) -> List[CutSample]:
    """Replay a simulation's notifications and sample the cut after each.

    Notifications are ordered by virtual time (event occurrences and
    finalizations interleaved; occurrences first on ties, since an event
    can only finalize at or after its occurrence).  Events never finalized
    during the run simply never enter.
    """
    execution = result.execution
    monitor = FinalizedCutMonitor(execution.n_processes)
    notifications: List[Tuple[float, int, object]] = []
    for ev in execution.all_events():
        notifications.append((result.event_times[ev.eid], 0, ev))
    for eid, t in result.finalization_times[clock_name].items():
        notifications.append((t, 1, eid))
    notifications.sort(key=lambda x: (x[0], x[1]))

    occurred = 0
    samples: List[CutSample] = []
    for t, kind, payload in notifications:
        if kind == 0:
            ev = payload  # type: ignore[assignment]
            occurred += 1
            send_eid = (
                execution.send_of(ev).eid if ev.is_receive else None  # type: ignore[union-attr]
            )
            monitor.on_event(ev, send_eid)  # type: ignore[arg-type]
        else:
            monitor.on_finalized(payload)  # type: ignore[arg-type]
        samples.append(
            CutSample(
                time=t,
                cut=monitor.cut,
                events_in_cut=monitor.events_in_cut,
                events_occurred=occurred,
            )
        )
    return samples
