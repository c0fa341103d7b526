"""Inline timestamps for arbitrary graphs via a vertex cover (paper Section 4).

Let ``VC`` be a vertex cover of the communication graph: every message is
sent from or to (or both) a process in ``VC``.  Processes in ``VC`` maintain
a vector clock *among themselves* (the ``mpre`` vector, one entry per cover
process); processes outside ``VC`` additionally learn, per cover neighbour
``c``, the index of the first event at ``c`` in each of their events' causal
future (the ``mpost`` vector).  An event's timestamp is

    ``⟨id, mctr, mpre[|VC|], mpost[|VC|]⟩``

— at most ``2|VC| + 2`` elements (Theorem 4.2).  Events at cover processes
are final immediately (they store no ``mpost``); an event at ``j ∉ VC``
becomes final once ``mpost[c]`` is known for every cover process ``c``
adjacent to ``j`` — i.e. after ``j`` completes a round trip with each cover
neighbour.  Entries for cover processes with no channel to ``j`` are ``∞``
forever and do not block finalization (paper's Remark in Section 4).

Definitions implemented (with max ∅ = 0 and min ∅ = ∞):

- ``mctr_e``    — 1-based index of ``e`` at its process;
- ``mpre_e[c]`` — max ``mctr_f`` over events ``f`` at ``c`` with ``f ⪯ e``;
- ``mpost_e[c]``— min ``mctr_f`` over events ``f`` at ``c`` such that some
  message ``m`` from ``j`` to ``c`` has ``e ⪯ send(m)`` and
  ``receive(m) ⪯ f`` (the minimum is attained at ``f = receive(m)``).

Comparison is Theorem 4.1's four-case operator.  Control messages (a cover
process acknowledging ``⟨mctr_m, mctr_of_receive⟩`` to a non-cover sender)
are resequenced per directed pair exactly as in
:class:`repro.clocks.inline_star.StarInlineClock`; with ``VC = {center}`` on
a star graph this class degenerates to the Section-3 algorithm (a property
the test suite checks exhaustively).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.clocks.base import (
    INFINITY,
    ClockAlgorithm,
    ControlMessage,
    Timestamp,
    counter_bits,
    dominance_rows,
    id_bits,
    vector_leq,
    vector_lt,
)
from repro.core.events import Event, EventId, ProcessId
from repro.topology.graph import CommunicationGraph

PostValue = Union[int, float]


@dataclass(frozen=True, slots=True)
class CoverTimestamp(Timestamp):
    """A finalized vertex-cover inline timestamp.

    ``mpre``/``mpost`` are indexed by position in the sorted ``cover`` tuple;
    ``mpost`` is ``None`` for events at cover processes.  ``cover`` itself is
    global protocol knowledge and is not counted among the elements.
    """

    id: ProcessId
    mctr: int
    mpre: Tuple[int, ...]
    mpost: Optional[Tuple[PostValue, ...]]
    cover: Tuple[ProcessId, ...]

    @property
    def in_cover(self) -> bool:
        return self.mpost is None

    def precedes(self, other: "Timestamp") -> bool:
        """Theorem 4.1's comparison: ``e -> f`` iff ``self < other``."""
        if not isinstance(other, CoverTimestamp):
            raise TypeError("cannot compare across schemes")
        if self.cover != other.cover:
            raise ValueError("timestamps use different vertex covers")
        mpost = self.mpost
        if mpost is None:  # a cover event: strict iff the other is one too
            if other.mpost is None:
                return vector_lt(self.mpre, other.mpre)
            return vector_leq(self.mpre, other.mpre)
        if other.id != self.id:
            return any(map(le, mpost, other.mpre))
        return self.mctr < other.mctr

    @classmethod
    def precedes_matrix(cls, timestamps):
        """Word-parallel Theorem 4.1 comparison over all pairs.

        Cover→any pairs need componentwise ``mpre`` dominance (an AND across
        cover coordinates of scalar sweeps, strict for cover targets);
        non-cover sources use the existential ``mpost[c] <= mpre[c]`` rule
        (an OR across coordinates); same-process non-cover pairs are patched
        with the ``mctr`` prefix order.
        """
        if not timestamps:
            return []
        cover = timestamps[0].cover
        if any(t.cover != cover for t in timestamps):
            return None  # pairwise raises the mixed-cover error
        m = len(timestamps)
        k = len(cover)
        rows = [0] * m
        cov_idx = [i for i, t in enumerate(timestamps) if t.in_cover]
        non_idx = [i for i, t in enumerate(timestamps) if not t.in_cover]
        # cover sources: componentwise mpre <= mpre, AND across coordinates
        if cov_idx:
            cov_mask = 0
            for i in cov_idx:
                cov_mask |= 1 << i
            acc = [cov_mask] * m
            for c in range(k):
                tmp = [0] * m
                src = [(timestamps[i].mpre[c], i) for i in cov_idx]
                dst = [(t.mpre[c], j) for j, t in enumerate(timestamps)]
                dominance_rows(src, dst, tmp)
                for j in range(m):
                    acc[j] &= tmp[j]
            # strict (vector_lt) for cover targets: drop equal-mpre sources
            eq_groups: Dict[Tuple[int, ...], int] = {}
            for i in cov_idx:
                key = timestamps[i].mpre
                eq_groups[key] = eq_groups.get(key, 0) | (1 << i)
            for j, t in enumerate(timestamps):
                if t.in_cover:
                    rows[j] |= acc[j] & ~eq_groups.get(t.mpre, 0)
                else:
                    rows[j] |= acc[j]  # vector_leq: equality allowed
        # non-cover sources, different process: any mpost[c] <= mpre[c]
        for c in range(k):
            src = [(timestamps[i].mpost[c], i) for i in non_idx]
            dst = [(t.mpre[c], j) for j, t in enumerate(timestamps)]
            dominance_rows(src, dst, rows)
        # same-process non-cover pairs use mctr order
        by_proc: Dict[ProcessId, List[int]] = {}
        for i in non_idx:
            by_proc.setdefault(timestamps[i].id, []).append(i)
        for idxs in by_proc.values():
            group = 0
            for i in idxs:
                group |= 1 << i
            prefix = 0
            for i in sorted(idxs, key=lambda i: timestamps[i].mctr):
                rows[i] = (rows[i] & ~group) | prefix
                prefix |= 1 << i
        return rows

    def elements(self) -> Tuple[PostValue, ...]:
        """Stored elements: ``2 + |VC|`` for cover events,
        ``2 + 2|VC|`` for the rest (Theorem 4.2's bound)."""
        base: Tuple[PostValue, ...] = (self.id, self.mctr) + self.mpre
        if self.mpost is None:
            return base
        return base + self.mpost

    @property
    def n_elements(self) -> int:
        if self.mpost is None:
            return 2 + len(self.mpre)
        return 2 + len(self.mpre) + len(self.mpost)


#: what a non-cover event keeps while its timestamp is ``⊥``: its own id (so
#: closing it constructs none), ``mpre``, and the ``mpost`` being filled in
_Open = Tuple[EventId, Tuple[int, ...], List[PostValue]]


class CoverInlineClock(ClockAlgorithm):
    """The Section-4 algorithm for an arbitrary communication graph.

    Parameters
    ----------
    graph:
        The communication topology; used to validate the cover, to know
        which ``mpost`` entries can ever be filled, and to reject messages
        that do not follow an edge.
    cover:
        A vertex cover of *graph*.  Smaller covers give smaller timestamps;
        see :mod:`repro.topology.vertex_cover` for ways to compute one.
    """

    name = "inline-cover"
    characterizes_causality = True

    def __init__(
        self,
        graph: CommunicationGraph,
        cover: Optional[Tuple[ProcessId, ...]] = None,
    ) -> None:
        super().__init__(graph.n_vertices)
        if cover is None:
            from repro.topology.vertex_cover import best_cover

            cover = tuple(best_cover(graph))
        self._cover: Tuple[ProcessId, ...] = tuple(sorted(set(cover)))
        if not graph.is_vertex_cover(self._cover):
            raise ValueError(f"{self._cover} is not a vertex cover")
        self._graph = graph
        self._cpos: Dict[ProcessId, int] = {
            c: i for i, c in enumerate(self._cover)
        }
        k = len(self._cover)
        self._mpre: List[List[int]] = [[0] * k for _ in range(self._n)]
        #: per process, ``{index: open entry}`` of the events still ``⊥``;
        #: an entry is dropped when its timestamp is written to ``_stamps``
        self._open: List[Dict[int, _Open]] = [{} for _ in range(self._n)]
        # which mpost slots of a non-cover process can ever become finite
        self._adjacent_cover: Dict[ProcessId, Tuple[int, ...]] = {}
        #: ``_upto[j][slot]``: events at non-cover *j* with ``mctr`` up to
        #: this have their final ``mpost[slot]``; ∞ for a slot with no
        #: channel to *j*, which nothing waits for
        self._upto: Dict[ProcessId, List[PostValue]] = {}
        for p in range(self._n):
            if p not in self._cpos:
                adjacent = tuple(
                    self._cpos[c] for c in sorted(graph.neighbors(p))
                )
                self._adjacent_cover[p] = adjacent
                self._upto[p] = [
                    0 if slot in adjacent else INFINITY for slot in range(k)
                ]
        # control sequencing, per directed pair (c -> j)
        self._ctrl_seq_out: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._ctrl_seq_in: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._ctrl_buffer: Dict[
            Tuple[ProcessId, ProcessId], Dict[int, Tuple[int, int]]
        ] = {}
        self._ctrl_emitted: Dict[
            Tuple[ProcessId, ProcessId], List[Tuple[int, int]]
        ] = {}
        self._terminated = False

    # ------------------------------------------------------------------
    @property
    def cover(self) -> Tuple[ProcessId, ...]:
        return self._cover

    @property
    def graph(self) -> CommunicationGraph:
        return self._graph

    def in_cover(self, p: ProcessId) -> bool:
        return p in self._cpos

    # ------------------------------------------------------------------
    def _new_event(
        self, ev: Event, mpre_m: Tuple[int, ...] = ()
    ) -> Tuple[int, Tuple[int, ...]]:
        """The record step: ``(mctr, mpre)`` of *ev*, which merges *mpre_m*
        (a received message's) first.  A cover event's timestamp is final
        here and stamped; any other opens an entry."""
        eid = ev.eid
        self._expect(eid)
        p = eid.proc
        mctr = eid.index
        mine = self._mpre[p]
        for i, v in enumerate(mpre_m):
            if v > mine[i]:
                mine[i] = v
        slot = self._cpos.get(p)
        if slot is not None:
            mine[slot] = mctr
            mpre = tuple(mine)
            self._stamp(eid, CoverTimestamp(p, mctr, mpre, None, self._cover))
            return mctr, mpre
        mpre = tuple(mine)
        self._stamps[p].append(None)
        entry = (eid, mpre, [INFINITY] * len(mine))
        if self._adjacent_cover[p]:
            self._open[p][mctr] = entry
        else:  # isolated non-cover process: nothing to wait for
            self._close(entry)
        return mctr, mpre

    def _close(self, entry: _Open) -> None:
        """An open event's ``mpost`` is permanent: build its timestamp, once."""
        eid, mpre, mpost = entry
        self._stamps[eid.proc][eid.index - 1] = CoverTimestamp(
            eid.proc, eid.index, mpre, tuple(mpost), self._cover
        )
        self._newly_finalized.append(eid)

    def _check_edge(self, ev: Event) -> None:
        if ev.peer is not None and not self._graph.has_edge(ev.eid.proc, ev.peer):
            raise ValueError(
                f"message between p{ev.eid.proc} and p{ev.peer} "
                f"violates the communication graph"
            )

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_local(self, ev: Event) -> None:
        self._new_event(ev)

    def on_send(self, ev: Event) -> Any:
        self._check_edge(ev)
        mctr, mpre = self._new_event(ev)
        return (ev.eid.proc, mctr, mpre)

    def on_receive(self, ev: Event, payload: Any) -> List[ControlMessage]:
        self._check_edge(ev)
        src, mctr_m, mpre_m = payload
        mctr, _mpre = self._new_event(ev, mpre_m)
        p = ev.eid.proc
        if p in self._cpos and src not in self._cpos:
            # acknowledge to the non-cover sender (paper: control message
            # with the send index and the receive index at the cover process)
            key = (p, src)
            seq = self._ctrl_seq_out.get(key, 0)
            self._ctrl_seq_out[key] = seq + 1
            self._ctrl_emitted.setdefault(key, []).append((mctr_m, mctr))
            return [ControlMessage(src=p, dst=src, payload=(seq, mctr_m, mctr))]
        return []

    # ------------------------------------------------------------------
    # control handling
    # ------------------------------------------------------------------
    def on_control(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Deliver a control message, resequencing per (src, dst) pair."""
        if src not in self._cpos:
            raise ValueError(f"control message from non-cover process p{src}")
        seq, a, b = payload
        key = (src, dst)
        buf = self._ctrl_buffer.setdefault(key, {})
        if seq in buf:
            raise ValueError(f"duplicate control seq {seq} on {key}")
        buf[seq] = (a, b)
        expected = self._ctrl_seq_in.get(key, 0)
        while expected in buf:
            a2, b2 = buf.pop(expected)
            expected += 1
            self._apply_control(src, dst, a2, b2)
        self._ctrl_seq_in[key] = expected

    def _apply_control(self, c: ProcessId, j: ProcessId, a: int, b: int) -> None:
        """Set ``mpost[c] = b`` for the events at *j* in ``(upto, a]`` — the
        first, hence minimal, acknowledgement from *c* that covers them —
        and close those whose every adjacent slot is now filled."""
        slot = self._cpos[c]
        filled = self._upto[j]
        upto = filled[slot]
        if a <= upto:
            return
        filled[slot] = a
        # slot s of event k is filled iff k <= filled[s]
        complete = min(filled)
        open_j = self._open[j]
        for k in range(upto + 1, a + 1):
            entry = open_j.get(k)
            if entry is None:
                continue  # an index this process never reached
            entry[2][slot] = b
            if k <= complete:
                del open_j[k]
                self._close(entry)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def timestamp(self, eid: EventId) -> Optional[CoverTimestamp]:
        """The base class's table read, but an event that never occurred
        is a ``KeyError``, not ``⊥``."""
        try:
            return self._stamps[eid.proc][eid.index - 1]  # type: ignore[return-value]
        except IndexError:
            raise KeyError(f"unknown event {eid}") from None

    def provisional_timestamp(self, eid: EventId) -> CoverTimestamp:
        """Current (possibly provisional) value, for inspection/debugging."""
        ts = self.timestamp(eid)
        if ts is None:
            _eid, mpre, mpost = self._open[eid.proc][eid.index]
            ts = CoverTimestamp(
                eid.proc, eid.index, mpre, tuple(mpost), self._cover
            )
        return ts

    # ------------------------------------------------------------------
    def width_bits(self, n_elements: int, max_events: int) -> int:
        """Theorem 4.3 accounting: ``id`` costs ``ceil(log2 n)`` bits,
        every other stored element ``ceil(log2(K+1))`` bits (∞ entries are
        encoded as 0, which no real receive index uses)."""
        return id_bits(self._n) + (n_elements - 1) * counter_bits(max_events)

    def payload_elements(self, payload: Any) -> int:
        """``(id, mctr, mpre)`` on an application message, ``(seq, send
        index, receive index)`` on a control message."""
        mpre = payload[2]
        return 3 if isinstance(mpre, int) else 2 + len(mpre)

    # ------------------------------------------------------------------
    def finalize_at_termination(self) -> List[EventId]:
        """Flush undelivered acknowledgements; remaining ∞ become permanent."""
        if self._terminated:
            return []
        self._terminated = True
        start = len(self._newly_finalized)
        for key, emitted in self._ctrl_emitted.items():
            c, j = key
            applied = self._ctrl_seq_in.get(key, 0)
            for seq in range(applied, len(emitted)):
                a, b = emitted[seq]
                self._apply_control(c, j, a, b)
            self._ctrl_seq_in[key] = len(emitted)
            self._ctrl_buffer.get(key, {}).clear()
        for open_p in self._open:
            for entry in open_p.values():
                self._close(entry)
            open_p.clear()
        return list(self._newly_finalized[start:])
