"""Inline timestamps for the star network (paper Section 3, Figure 1).

A star network has one *central* process ``C`` and ``n-1`` *radial*
processes; every message travels between ``C`` and some radial process.  The
key idea: for events ``e``, ``f`` on different radial processes with
``e -> f`` there must be an event ``g`` at ``C`` with ``e -> g -> f``, so
events at ``C`` can serve as proxies.  Each event then needs only four
elements, ``⟨id, ctr, pre, post⟩``:

- ``id``    — the process where the event occurred;
- ``ctr``   — its 1-based index at that process;
- ``pre``   — the largest ``ctr`` of an event at ``C`` in its causal past
  (``pre = ctr`` for events at ``C`` themselves; max of empty set is 0);
- ``post``  — the smallest ``ctr`` of an event at ``C`` in its causal future
  (radial events only; min of empty set is ∞).

``pre`` is known the moment the event occurs; ``post`` becomes known when
``C`` acknowledges, via a *control message* ``⟨ctr_m, ctr_C⟩`` on a FIFO
control channel, the receipt of a message the radial process sent at or
after the event.  Until then the timestamp is ``⊥`` (inline).  Comparison is
Theorem 3.1's four-case operator — *not* the standard vector comparison.

FIFO control transport: rather than assuming the host's channels are FIFO,
the algorithm stamps every control message with a per-channel sequence
number and resequences at the receiver, exactly as the paper notes one can
"simulate a FIFO channel for the control messages".  This keeps finalization
semantics correct even when the host piggybacks controls on non-FIFO
application messages.

``finalize_at_termination`` models the end of the computation: any control
message that was emitted but never transported is applied (the information
exists at ``C``; a terminating run can always flush it), after which every
remaining ``∞`` is the event's true, permanent ``post`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.clocks.base import (
    INFINITY,
    ClockAlgorithm,
    ControlMessage,
    Timestamp,
    counter_bits,
    dominance_rows,
    id_bits,
)
from repro.core.events import Event, EventId, ProcessId

PostValue = Union[int, float]  # int, or INFINITY


@dataclass(frozen=True, slots=True)
class StarTimestamp(Timestamp):
    """A finalized ``⟨id, ctr, pre, post⟩`` star timestamp.

    ``post`` is ``None`` for events at the central process (where it is not
    defined) and ``INFINITY`` for radial events with no causal successor at
    ``C``.  ``center`` identifies the central process; it is global protocol
    knowledge and is not counted as a timestamp element.
    """

    id: ProcessId
    ctr: int
    pre: int
    post: Optional[PostValue]
    center: ProcessId

    def __post_init__(self) -> None:
        # Theorem 3.1's cases read ``post`` without a None check, so the
        # central/radial boundary is enforced at construction: central
        # events have no ``post`` (it is undefined there, not ∞), radial
        # events always carry one — an integer receive index at C, or
        # INFINITY when no event at C ever hears of this event.
        if self.ctr < 1:
            raise ValueError(f"ctr must be >= 1, got {self.ctr}")
        if self.pre < 0:
            raise ValueError(f"pre must be >= 0, got {self.pre}")
        if self.id == self.center:
            if self.post is not None:
                raise ValueError(
                    f"central event ⟨id={self.id}, ctr={self.ctr}⟩ must "
                    f"have post=None, got {self.post!r}"
                )
            if self.pre != self.ctr:
                raise ValueError(
                    f"central event must have pre == ctr, got "
                    f"pre={self.pre} ctr={self.ctr}"
                )
        else:
            if self.post is None:
                raise ValueError(
                    f"radial event ⟨id={self.id}, ctr={self.ctr}⟩ needs a "
                    f"post value (an index at C, or INFINITY)"
                )
            if self.post != INFINITY and (
                not isinstance(self.post, int) or self.post < 1
            ):
                raise ValueError(
                    f"radial post must be an index >= 1 or INFINITY, "
                    f"got {self.post!r}"
                )

    @property
    def at_center(self) -> bool:
        return self.id == self.center

    def precedes(self, other: "Timestamp") -> bool:
        """Theorem 3.1's comparison: ``e -> f`` iff ``self < other``."""
        if not isinstance(other, StarTimestamp):
            raise TypeError("cannot compare across schemes")
        if self.center != other.center:
            raise ValueError("timestamps come from different star systems")
        center = self.center
        if self.id == center:
            if other.id == center:
                return self.pre < other.pre
            return self.pre <= other.pre
        if other.id != self.id:
            # __post_init__ guarantees a radial post; ∞ <= pre is False for
            # every finite pre, so an unacknowledged radial event precedes
            # nothing outside its own process — exactly HB on a star
            return self.post <= other.pre  # type: ignore[operator]
        # radial, same process
        return self.ctr < other.ctr

    @classmethod
    def precedes_matrix(cls, timestamps):
        """Word-parallel Theorem 3.1 comparison over all pairs.

        Each of the four cases is a scalar-dominance sweep; same-process
        radial pairs are patched afterwards with the ``ctr`` prefix order.
        """
        if not timestamps:
            return []
        center = timestamps[0].center
        if any(t.center != center for t in timestamps):
            return None  # pairwise raises the mixed-system error
        m = len(timestamps)
        rows = [0] * m
        c_src = [(t.pre, i) for i, t in enumerate(timestamps) if t.at_center]
        c_dst = c_src
        r_dst = [
            (t.pre, j) for j, t in enumerate(timestamps) if not t.at_center
        ]
        r_src = [
            (t.post, i) for i, t in enumerate(timestamps) if not t.at_center
        ]
        all_dst = [(t.pre, j) for j, t in enumerate(timestamps)]
        dominance_rows(c_src, c_dst, rows, strict=True)  # centre → centre
        dominance_rows(c_src, r_dst, rows)               # centre → radial
        dominance_rows(r_src, all_dst, rows)             # radial → other proc
        # same-process radial pairs use ctr order, not post <= pre
        by_proc: Dict[ProcessId, List[int]] = {}
        for i, t in enumerate(timestamps):
            if not t.at_center:
                by_proc.setdefault(t.id, []).append(i)
        for idxs in by_proc.values():
            group = 0
            for i in idxs:
                group |= 1 << i
            prefix = 0
            for i in sorted(idxs, key=lambda i: timestamps[i].ctr):
                rows[i] = (rows[i] & ~group) | prefix
                prefix |= 1 << i
        return rows

    def elements(self) -> Tuple[PostValue, ...]:
        """Stored elements: 4 for radial events, 2 for central ones
        (``pre = ctr`` and ``post`` undefined at the center)."""
        if self.at_center:
            return (self.id, self.ctr)
        return (self.id, self.ctr, self.pre, self.post)  # post never None here

    @property
    def n_elements(self) -> int:
        return 2 if self.id == self.center else 4


class StarInlineClock(ClockAlgorithm):
    """The Figure-1 algorithm.

    Parameters
    ----------
    n_processes:
        Total number of processes.
    center:
        The central process id (default 0, matching
        :func:`repro.topology.generators.star`).
    """

    name = "inline-star"
    characterizes_causality = True

    def __init__(self, n_processes: int, center: ProcessId = 0) -> None:
        super().__init__(n_processes)
        if not 0 <= center < n_processes:
            raise ValueError("center out of range")
        self._center = center
        self._pre = [0] * n_processes
        #: per radial process, ``{ctr: (event id, pre)}`` of the events still
        #: ``⊥`` (their ``post`` is ∞ until the acknowledgement that closes
        #: them); an entry is dropped when its timestamp goes to ``_stamps``
        self._open: List[Dict[int, Tuple[EventId, int]]] = [{} for _ in range(n_processes)]
        # control-channel sequencing (C -> j), and resequencing state at j
        self._ctrl_seq_out = [0] * n_processes  # next seq to emit, per dst
        self._ctrl_seq_in = [0] * n_processes  # next seq expected, per dst
        self._ctrl_buffer: Dict[ProcessId, Dict[int, Tuple[int, int]]] = {
            p: {} for p in range(n_processes)
        }
        # events with ctr <= finalized_upto[j] have final post values
        self._finalized_upto = [0] * n_processes
        # all emitted controls, and how many were actually delivered, per dst
        self._ctrl_emitted: Dict[ProcessId, List[Tuple[int, int]]] = {
            p: [] for p in range(n_processes)
        }
        self._terminated = False

    # ------------------------------------------------------------------
    @property
    def center(self) -> ProcessId:
        return self._center

    def _new_event(self, ev: Event, ctr_m: int = 0) -> Tuple[int, int]:
        """The record step: ``(ctr, pre)`` of *ev*; *ctr_m* is the index a
        message received from ``C`` carries.  A central event's timestamp
        is final here and stamped; a radial one opens an entry."""
        self._check_star_event(ev)
        eid = ev.eid
        self._expect(eid)
        p = eid.proc
        ctr = eid.index
        if p == self._center:
            self._stamp(eid, StarTimestamp(p, ctr, ctr, None, p))
            return ctr, ctr
        pre = self._pre[p] = max(self._pre[p], ctr_m)
        self._stamps[p].append(None)
        self._open[p][ctr] = (eid, pre)
        return ctr, pre

    def _close(self, entry: Tuple[EventId, int], post: PostValue) -> None:
        """A radial event's ``post`` is permanent: build its timestamp, once."""
        eid, pre = entry
        self._stamps[eid.proc][eid.index - 1] = StarTimestamp(
            eid.proc, eid.index, pre, post, self._center
        )
        self._newly_finalized.append(eid)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_local(self, ev: Event) -> None:
        self._new_event(ev)

    def on_send(self, ev: Event) -> Any:
        return self._new_event(ev)

    def on_receive(self, ev: Event, payload: Any) -> List[ControlMessage]:
        ctr_m, _pre_m = payload
        p = ev.eid.proc
        if p != self._center:
            # radial receive: the message necessarily came from C
            self._new_event(ev, ctr_m)
            return []
        ctr, _pre = self._new_event(ev)
        # acknowledge: tell sender j at which index its message arrived
        j = ev.peer
        assert j is not None
        seq = self._ctrl_seq_out[j]
        self._ctrl_seq_out[j] += 1
        self._ctrl_emitted[j].append((ctr_m, ctr))
        return [ControlMessage(src=p, dst=j, payload=(seq, ctr_m, ctr))]

    def _check_star_event(self, ev: Event) -> None:
        center = self._center
        if ev.peer is not None and ev.eid.proc != center and ev.peer != center:
            raise ValueError(
                f"message between two radial processes "
                f"(p{ev.eid.proc} and p{ev.peer}) violates the star topology"
            )

    # ------------------------------------------------------------------
    # control handling
    # ------------------------------------------------------------------
    def on_control(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Deliver a control message ``(seq, a, b)`` to radial process *dst*.

        Applies it in sequence-number order (resequencing buffer), per the
        paper's FIFO control channel requirement.  *src* is necessarily the
        central process.
        """
        if src != self._center:
            raise ValueError(f"control message from non-central process p{src}")
        seq, a, b = payload
        buf = self._ctrl_buffer[dst]
        if seq in buf:
            raise ValueError(f"duplicate control message seq {seq} for p{dst}")
        buf[seq] = (a, b)
        while self._ctrl_seq_in[dst] in buf:
            a2, b2 = buf.pop(self._ctrl_seq_in[dst])
            self._ctrl_seq_in[dst] += 1
            self._apply_control(dst, a2, b2)

    def _apply_control(self, j: ProcessId, a: int, b: int) -> None:
        """Close the events at *j* with ``ctr`` in ``(finalized_upto, a]``
        with ``post = b`` — those are exactly the events for which this is
        the first (hence minimal, by FIFO) applicable acknowledgement."""
        upto = self._finalized_upto[j]
        if a <= upto:
            return
        self._finalized_upto[j] = a
        open_j = self._open[j]
        for ctr in range(upto + 1, a + 1):
            entry = open_j.pop(ctr, None)
            if entry is not None:  # None: an index *j* never reached
                self._close(entry, b)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def timestamp(self, eid: EventId) -> Optional[StarTimestamp]:
        """The base class's table read, but an event that never occurred
        is a ``KeyError``, not ``⊥``."""
        try:
            return self._stamps[eid.proc][eid.index - 1]  # type: ignore[return-value]
        except IndexError:
            raise KeyError(f"unknown event {eid}") from None

    def provisional_timestamp(self, eid: EventId) -> StarTimestamp:
        """The current (possibly not yet permanent) value — for inspection."""
        ts = self.timestamp(eid)
        if ts is None:
            _eid, pre = self._open[eid.proc][eid.index]
            ts = StarTimestamp(eid.proc, eid.index, pre, INFINITY, self._center)
        return ts

    # ------------------------------------------------------------------
    def width_bits(self, n_elements: int, max_events: int) -> int:
        """Theorem 4.3 accounting for the star (|VC| = 1).

        The ``id`` element costs ``ceil(log2 n)`` bits; every other stored
        element costs ``ceil(log2(K+1))`` bits (a ``post`` of ∞ is encoded
        as 0, which no real receive index uses).
        """
        return id_bits(self._n) + (n_elements - 1) * counter_bits(max_events)

    def payload_elements(self, payload: Any) -> int:
        """``(ctr, pre)`` on an application message, ``(seq, send index,
        receive index)`` on a control message: flat tuples of integers."""
        return len(payload)

    # ------------------------------------------------------------------
    def finalize_at_termination(self) -> List[EventId]:
        """Flush undelivered control information and make all posts permanent."""
        if self._terminated:
            return []
        self._terminated = True
        start = len(self._newly_finalized)
        for j in range(self._n):
            if j == self._center:
                continue
            # apply every emitted-but-not-yet-applied control, in order
            applied = self._ctrl_seq_in[j]
            for seq in range(applied, len(self._ctrl_emitted[j])):
                a, b = self._ctrl_emitted[j][seq]
                self._apply_control(j, a, b)
            self._ctrl_seq_in[j] = len(self._ctrl_emitted[j])
            self._ctrl_buffer[j].clear()
            # remaining infinities are true: no causal successor at C
            for entry in self._open[j].values():
                self._close(entry, INFINITY)
            self._open[j].clear()
        return list(self._newly_finalized[start:])
