"""Deterministic discrete-event scheduler (virtual time).

A minimal priority-queue scheduler: callbacks are executed in timestamp
order, ties broken by insertion order, so a fixed seed always yields the
identical execution.  Virtual time is a float with no unit; delay models in
:mod:`repro.sim.network` define its scale.

A scheduled callback is a function and its arguments: a heap entry is
``(time, seq, fn, args, handle)`` and running it is ``fn(*args)``, so a
caller schedules a bound method with what it needs instead of building a
closure or a ``partial`` per step.  Only :meth:`EventScheduler.timer`
allocates a :class:`TimerHandle`; :meth:`~EventScheduler.at` and
:meth:`~EventScheduler.after` push ``handle=None`` and return nothing.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

Callback = Callable[..., None]

#: compaction floor: never rebuild the heap for fewer dead entries than
#: this, no matter how small the heap is.  Without a floor, a tiny heap
#: whose entries are mostly cancelled (a pathological cancel-heavy
#: schedule: schedule one timer, cancel it, repeat) re-heapifies on every
#: other cancel — O(n) work per O(1) cancellation.  With it, each
#: compaction is preceded by at least ``max(_COMPACT_MIN, live)``
#: cancellations, keeping cancels amortized O(1) at every heap size.
_COMPACT_MIN = 64


class TimerHandle:
    """Cancellation token for a callback scheduled by
    :meth:`EventScheduler.timer`.

    Cancelling is O(1): the heap entry stays queued but is skipped on pop
    without executing, advancing virtual time, or counting as a step.  The
    retransmission timers of the reliable control transport rely on this —
    an acknowledged message must not stretch the run out to its (now moot)
    retry deadline.
    """

    __slots__ = ("_cancelled", "_scheduler")

    def __init__(self, scheduler: "EventScheduler") -> None:
        self._cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        if not self._cancelled:
            self._cancelled = True
            self._scheduler._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class EventScheduler:
    """Runs callbacks in virtual-time order."""

    def __init__(self) -> None:
        self._heap: List[
            Tuple[float, int, Callback, Tuple[Any, ...], Optional[TimerHandle]]
        ] = []
        self._seq = 0
        #: current virtual time (a plain attribute, not a property: the
        #: simulator reads it several times per event); only :meth:`run`
        #: advances it
        self.now = 0.0
        self._steps = 0
        self._cancelled_pending = 0
        self._compactions = 0

    @property
    def pending(self) -> int:
        """Number of scheduled, not yet executed (nor cancelled) callbacks."""
        return len(self._heap) - self._cancelled_pending

    @property
    def steps_executed(self) -> int:
        return self._steps

    @property
    def heap_size(self) -> int:
        """Physical heap length, cancelled entries included."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted."""
        return self._compactions

    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        # Lazy cancellation leaves dead entries queued; workloads that cancel
        # most of what they schedule (retransmission timers under a reliable
        # transport that mostly succeeds) would otherwise grow the heap — and
        # every push/pop's O(log n) — with garbage.  Rebuild once the dead
        # outnumber both the live entries (proportional bound: the O(live)
        # rebuild is paid for by at least as many cancels) and the absolute
        # floor (small heaps must not re-heapify every other cancel); the
        # heap stays within ~2× its live size and `pending` exact throughout.
        dead = self._cancelled_pending
        if dead > _COMPACT_MIN and dead > len(self._heap) - dead:
            self._compact()

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if e[4] is None or not e[4]._cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    def at(self, time: float, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time *time*."""
        if not time >= self.now:  # NaN too: it compares false both ways
            raise ValueError(f"cannot schedule at {time} (now {self.now})")
        heapq.heappush(self._heap, (time, self._seq, fn, args, None))
        self._seq += 1

    def after(self, delay: float, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` after *delay* units of virtual time."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule after {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args, None))
        self._seq += 1

    def timer(self, delay: float, fn: Callback, *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` after *delay*, cancellably.

        The one scheduling call that builds a handle: the returned
        :class:`TimerHandle` cancels the entry in O(1).
        """
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule after {delay}")
        handle = TimerHandle(self)
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args, handle))
        self._seq += 1
        return handle

    def run(
        self,
        max_time: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        """Execute callbacks until the queue drains or a bound is hit.

        Callbacks scheduled during the run are executed too.  With
        *max_time*, callbacks strictly later than that instant remain queued
        and virtual time stops at the last executed callback.
        """
        steps = 0
        heap = self._heap
        while heap:
            if max_steps is not None and steps >= max_steps:
                break
            time, _seq, fn, args, handle = heap[0]
            if handle is not None and handle._cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                continue
            if max_time is not None and time > max_time:
                break
            heapq.heappop(heap)
            self.now = time
            if handle is not None:
                # executed entries can no longer be cancelled; flag directly
                # so a late cancel() does not skew the pending-count
                # bookkeeping
                handle._cancelled = True
            fn(*args)
            steps += 1
            self._steps += 1
            # a compaction during fn replaced the list
            heap = self._heap
