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

The control channels, their resequencing and the termination flush are
:class:`~repro.clocks.base.InlineClock`'s, shared with the cover scheme:
this module keeps the record steps, what an acknowledgement does at a
radial process, and the timestamp.  After the flush every remaining ``∞`` is
the event's true, permanent ``post`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.clocks.base import (
    INFINITY,
    InlineClock,
    Timestamp,
    dominance_rows,
)
from repro.core.events import EventId, ProcessId

PostValue = Union[int, float]  # int, or INFINITY


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        id: ProcessId,
        ctr: int,
        pre: int,
        post: Optional[PostValue],
        center: ProcessId,
    ) -> None:
        # Theorem 3.1's cases read ``post`` without a None check, so the
        # central/radial boundary is enforced at construction: central
        # events have no ``post`` (it is undefined there, not ∞), radial
        # events always carry one — an integer receive index at C, or
        # INFINITY when no event at C ever hears of this event.
        if ctr < 1:
            raise ValueError(f"ctr must be >= 1, got {ctr}")
        if pre < 0:
            raise ValueError(f"pre must be >= 0, got {pre}")
        if id == center:
            if post is not None:
                raise ValueError(
                    f"central event ⟨id={id}, ctr={ctr}⟩ must "
                    f"have post=None, got {post!r}"
                )
            if pre != ctr:
                raise ValueError(
                    f"central event must have pre == ctr, got "
                    f"pre={pre} ctr={ctr}"
                )
        else:
            if post is None:
                raise ValueError(
                    f"radial event ⟨id={id}, ctr={ctr}⟩ needs a "
                    f"post value (an index at C, or INFINITY)"
                )
            if post != INFINITY and (
                not isinstance(post, int) or post < 1
            ):
                raise ValueError(
                    f"radial post must be an index >= 1 or INFINITY, "
                    f"got {post!r}"
                )
        # each slot written through its descriptor, as ``CoverTimestamp``
        # does: about half of ``object.__setattr__``'s cost
        _set_id(self, id)
        _set_ctr(self, ctr)
        _set_pre(self, pre)
        _set_post(self, post)
        _set_center(self, center)

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


#: the slot descriptors' setters, which ``StarTimestamp.__init__`` writes
#: through (the class is frozen: ``setattr`` on an instance raises)
_set_id = StarTimestamp.id.__set__  # type: ignore[attr-defined]
_set_ctr = StarTimestamp.ctr.__set__  # type: ignore[attr-defined]
_set_pre = StarTimestamp.pre.__set__  # type: ignore[attr-defined]
_set_post = StarTimestamp.post.__set__  # type: ignore[attr-defined]
_set_center = StarTimestamp.center.__set__  # type: ignore[attr-defined]


class StarInlineClock(InlineClock):
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
        if not 0 <= center < n_processes:
            raise ValueError("center out of range")
        # one control channel per radial process, from the centre
        super().__init__(
            n_processes, [(center, j) for j in range(n_processes) if j != center]
        )
        self._center = center
        #: ``_nbrs[p]``: the processes *p* shares a channel with — every
        #: other process for the centre, the centre alone for a radial one
        self._nbrs: Tuple[FrozenSet[ProcessId], ...] = tuple(
            frozenset(range(n_processes)) - {p} if p == center else frozenset((center,))
            for p in range(n_processes)
        )
        self._pre = [0] * n_processes
        # a radial event's ``_open`` entry is its ``pre``: its ``post`` is ∞
        # until the acknowledgement that closes it; events with ctr <=
        # finalized_upto[j] have final post values
        self._finalized_upto = [0] * n_processes

    # ------------------------------------------------------------------
    @property
    def center(self) -> ProcessId:
        return self._center

    def _step(self, p: ProcessId, k: int, ctr_m: int = 0) -> int:
        """The record step of event *k* at *p*, after the peer check: the
        index check, then its ``pre``; *ctr_m* is the index a message
        received from ``C`` carries.  A central event's timestamp is final
        here and stamped; a radial one opens an entry."""
        stamps = self._stamps[p]
        if k != len(stamps) + 1:
            self._expect(p, k)
        if p == self._center:
            stamps.append(StarTimestamp(p, k, k, None, p))
            self._newly_finalized.append((p, k))
            return k
        pre = self._pre[p]
        if ctr_m > pre:
            pre = self._pre[p] = ctr_m
        stamps.append(None)
        self._open[p][k] = pre
        return pre

    def _close(self, p: ProcessId, k: int, pre: int, post: PostValue = INFINITY) -> None:
        """A radial event's ``post`` is permanent: build its timestamp, once."""
        self._stamps[p][k - 1] = StarTimestamp(p, k, pre, post, self._center)
        self._newly_finalized.append((p, k))

    # ------------------------------------------------------------------
    # record steps
    # ------------------------------------------------------------------
    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        if peer not in self._nbrs[p]:
            self._refuse_peer(p, peer)
        return (k, self._step(p, k))

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> Optional[Tuple[int, int, int]]:
        if peer not in self._nbrs[p]:
            self._refuse_peer(p, peer)
        ctr_m, _pre_m = payload
        if p != self._center:
            # radial receive: the message necessarily came from C
            self._step(p, k, ctr_m)
            return None
        self._step(p, k)
        # acknowledge: tell sender *peer* at which index its message arrived
        return self._ack(p, peer, ctr_m, k)

    def _apply_control(self, c: ProcessId, j: ProcessId, a: int, b: int) -> None:
        """Close the events at *j* with ``ctr`` in ``(finalized_upto, a]``
        with ``post = b`` — those are exactly the events for which this is
        the first (hence minimal, by FIFO) applicable acknowledgement."""
        upto = self._finalized_upto[j]
        if a <= upto:
            return
        self._finalized_upto[j] = a
        open_j = self._open[j]
        for ctr in range(upto + 1, a + 1):
            pre = open_j.pop(ctr, None)
            if pre is not None:  # None: an index *j* never reached
                self._close(j, ctr, pre, b)

    # ------------------------------------------------------------------
    def provisional_timestamp(self, eid: EventId) -> StarTimestamp:
        """The current (possibly not yet permanent) value — for inspection."""
        ts = self.timestamp(eid)
        if ts is None:
            pre = self._open[eid.proc][eid.index]
            ts = StarTimestamp(eid.proc, eid.index, pre, INFINITY, self._center)
        return ts

    def payload_elements(self, payload: Any) -> int:
        """``(ctr, pre)`` on an application message, ``(seq, send index,
        receive index)`` on a control message: flat tuples of integers."""
        return len(payload)
