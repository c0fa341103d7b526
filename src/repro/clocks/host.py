"""Hosting a clock: the protocol between a transport and a scheme."""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.clocks.base import ClockAlgorithm, DuplicateControl
from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId, ProcessId
from repro.core.execution import Execution


class ClockHost:
    """Runs one clock over the events a transport reports.

    The paper's inline schemes compute a timestamp late: an event stays
    ``⊥`` until a control message acknowledges it, so hosting a clock is a
    protocol, not a call.  The host numbers each process's events, carries
    each payload from its send to its receive by message id, hands the
    acknowledgement ``record_receive`` returns to the control-delivery
    policy, counts the second copies of a control the clock refuses, and
    drains the events that have just become final, with each one's delay in
    events.  A caller keeps its transport and its policy: with no
    *send_control* an acknowledgement is applied where it is made, else
    ``send_control(src, dst, ack)`` routes it and each copy that arrives goes
    to :meth:`control`.  *timer*, an object whose ``now`` is the time (the
    simulator's scheduler), times each finalization.

    Each step checks before it moves anything: the clock refuses an event
    it cannot take, and then the host has numbered, carried and logged
    nothing either.  Each drains where it returns, the same lines in all
    four: a call per step would be the simulator's largest cost, where an
    online clock finalizes on every step.
    """

    __slots__ = (
        "clock", "n_events", "in_flight", "duplicates", "ranks",
        "finalized", "final_times", "delays", "send_control", "_newly", "_timer",
    )

    def __init__(
        self, clock: ClockAlgorithm,
        send_control: Optional[Callable[[ProcessId, ProcessId, Any], Any]] = None, timer: Any = None,
    ) -> None:
        self.clock = clock
        self.n_events = 0
        #: payloads sent and not yet received, by message id
        self.in_flight: Dict[int, Any] = {}
        #: control copies the clock refused as already applied or held
        self.duplicates = 0
        #: ``ranks[p][k - 1]``: how many events the host took before ``(p, k)``
        self.ranks = [array("q") for _ in range(clock.n_processes)]
        #: the rank of every event the clock finalized, in finalization order
        self.finalized = array("q")
        #: with a timer, when each entry of ``finalized`` became final
        self.final_times: List[float] = []
        #: ``{events taken while ⊥: how many events}``; 0 is final at once
        self.delays: Dict[int, int] = defaultdict(int)
        self.send_control = clock.on_control if send_control is None else send_control
        self._newly = clock._newly_finalized
        self._timer = timer

    def local(self, p: ProcessId) -> int:
        """*p* takes a local event; returns its index there."""
        taken = self.ranks[p]
        k = len(taken) + 1
        self.clock.record_local(p, k)
        taken.append(last := self.n_events)
        self.n_events = last + 1
        newly = self._newly
        if newly:
            for q, j in newly:
                seq = self.ranks[q][j - 1]
                self.finalized.append(seq)
                self.delays[last - seq] += 1
            if self._timer is not None:
                self.final_times += [self._timer.now] * len(newly)
            newly.clear()
        return k

    def send(self, p: ProcessId, peer: ProcessId, mid: int) -> int:
        """*p* sends *peer* the message *mid*; returns the event's index.
        The payload waits in ``in_flight[mid]`` for the receive."""
        taken = self.ranks[p]
        k = len(taken) + 1
        self.in_flight[mid] = self.clock.record_send(p, k, peer)
        taken.append(last := self.n_events)
        self.n_events = last + 1
        newly = self._newly
        if newly:
            for q, j in newly:
                seq = self.ranks[q][j - 1]
                self.finalized.append(seq)
                self.delays[last - seq] += 1
            if self._timer is not None:
                self.final_times += [self._timer.now] * len(newly)
            newly.clear()
        return k

    def receive(self, p: ProcessId, peer: ProcessId, mid: int) -> int:
        """*p* receives from *peer* the message *mid*, whose payload leaves
        ``in_flight``; returns the event's index.  The control *p* now owes
        *peer*, if any, goes to the policy."""
        taken = self.ranks[p]
        k = len(taken) + 1
        ack = self.clock.record_receive(p, k, peer, self.in_flight[mid])
        del self.in_flight[mid]
        taken.append(last := self.n_events)
        self.n_events = last + 1
        if ack is not None:
            self.send_control(p, peer, ack)
        newly = self._newly
        if newly:
            for q, j in newly:
                seq = self.ranks[q][j - 1]
                self.finalized.append(seq)
                self.delays[last - seq] += 1
            if self._timer is not None:
                self.final_times += [self._timer.now] * len(newly)
            newly.clear()
        return k

    def control(self, src: ProcessId, dst: ProcessId, ack: Any) -> bool:
        """A copy of the control *src* sent *dst* arrives; ``False`` if the
        clock refused it as a second copy (counted, never applied)."""
        try:
            self.clock.on_control(src, dst, ack)
        except DuplicateControl:
            self.duplicates += 1
            return False
        newly = self._newly
        if newly:
            last = self.n_events - 1
            for q, j in newly:
                seq = self.ranks[q][j - 1]
                self.finalized.append(seq)
                self.delays[last - seq] += 1
            if self._timer is not None:
                self.final_times += [self._timer.now] * len(newly)
            newly.clear()
        return True

    def finish(
        self, execution: Execution, finalized_during_run: Iterable[EventId]
    ) -> TimestampAssignment:
        """End the run: declare it terminated, so every event still ``⊥``
        closes (not a finalization during the run, so not drained); then
        take the scheme's table of timestamps.  The ranks, which only a step
        reads, go: a finished host takes no more steps."""
        self.clock.finalize_at_termination()
        self._newly.clear()
        self.ranks = []
        return TimestampAssignment(self.clock, execution, finalized_during_run)
