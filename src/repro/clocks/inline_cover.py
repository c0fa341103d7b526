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

Comparison is Theorem 4.1's four-case operator.  The control messages (a
cover process acknowledging ``⟨mctr_m, mctr_of_receive⟩`` to a non-cover
sender) travel on one channel per such edge, resequenced and flushed at
termination by :class:`~repro.clocks.base.InlineClock`, as in
:class:`repro.clocks.inline_star.StarInlineClock`; with ``VC = {center}`` on
a star graph this class degenerates to the Section-3 algorithm (a property
the test suite checks exhaustively).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.clocks.base import (
    INFINITY,
    InlineClock,
    Timestamp,
    dominance_rows,
    vector_leq,
    vector_lt,
)
from repro.core.events import EventId, ProcessId
from repro.topology.graph import CommunicationGraph

PostValue = Union[int, float]


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        id: ProcessId,
        mctr: int,
        mpre: Tuple[int, ...],
        mpost: Optional[Tuple[PostValue, ...]],
        cover: Tuple[ProcessId, ...],
    ) -> None:
        # the frozen dataclass's own __init__ goes through
        # ``object.__setattr__`` once per field; writing each slot through
        # its descriptor is the same store at about half the cost
        _set_id(self, id)
        _set_mctr(self, mctr)
        _set_mpre(self, mpre)
        _set_mpost(self, mpost)
        _set_cover(self, cover)

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


#: the slot descriptors' setters, which ``CoverTimestamp.__init__`` writes
#: through (the class is frozen: ``setattr`` on an instance raises)
_set_id = CoverTimestamp.id.__set__  # type: ignore[attr-defined]
_set_mctr = CoverTimestamp.mctr.__set__  # type: ignore[attr-defined]
_set_mpre = CoverTimestamp.mpre.__set__  # type: ignore[attr-defined]
_set_mpost = CoverTimestamp.mpost.__set__  # type: ignore[attr-defined]
_set_cover = CoverTimestamp.cover.__set__  # type: ignore[attr-defined]


#: what a non-cover event keeps in ``_open`` while its timestamp is ``⊥``:
#: ``mpre``, and the ``mpost`` being filled in
_Open = Tuple[Tuple[int, ...], List[PostValue]]


class CoverInlineClock(InlineClock):
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
        if cover is None:
            from repro.topology.vertex_cover import best_cover

            cover = tuple(best_cover(graph))
        self._cover: Tuple[ProcessId, ...] = tuple(sorted(set(cover)))
        if not graph.is_vertex_cover(self._cover):
            raise ValueError(f"{self._cover} is not a vertex cover")
        # one control channel per edge from a cover process c to a
        # non-cover j
        super().__init__(
            graph.n_vertices,
            [
                (c, j)
                for c in self._cover
                for j in sorted(graph.neighbors(c))
                if j not in self._cover
            ],
        )
        self._graph = graph
        #: ``_nbrs[p]``: the processes *p* shares a channel with
        self._nbrs: Tuple[FrozenSet[ProcessId], ...] = tuple(
            frozenset(graph.neighbors(p)) for p in range(self._n)
        )
        self._cpos: Dict[ProcessId, int] = {
            c: i for i, c in enumerate(self._cover)
        }
        k = len(self._cover)
        self._mpre: List[List[int]] = [[0] * k for _ in range(self._n)]
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
    def _step(
        self, p: ProcessId, k: int, mpre_m: Tuple[int, ...] = ()
    ) -> Tuple[int, ...]:
        """The record step of event *k* at *p*, after the peer check: the
        index check, then its ``mpre``, which merges *mpre_m* (a received
        message's) first.  A cover event's timestamp is final here and
        stamped; any other opens an entry."""
        stamps = self._stamps[p]
        if k != len(stamps) + 1:
            self._expect(p, k)
        mine = self._mpre[p]
        for i, v in enumerate(mpre_m):
            if v > mine[i]:
                mine[i] = v
        slot = self._cpos.get(p)
        if slot is not None:
            mine[slot] = k
            mpre = tuple(mine)
            stamps.append(CoverTimestamp(p, k, mpre, None, self._cover))
            self._newly_finalized.append((p, k))
            return mpre
        mpre = tuple(mine)
        stamps.append(None)
        entry = (mpre, [INFINITY] * len(mine))
        if self._adjacent_cover[p]:
            self._open[p][k] = entry
        else:  # isolated non-cover process: nothing to wait for
            self._close(p, k, entry)
        return mpre

    def _close(self, p: ProcessId, k: int, entry: _Open) -> None:
        """An open event's ``mpost`` is permanent: build its timestamp, once."""
        mpre, mpost = entry
        self._stamps[p][k - 1] = CoverTimestamp(p, k, mpre, tuple(mpost), self._cover)
        self._newly_finalized.append((p, k))

    # ------------------------------------------------------------------
    # record steps
    # ------------------------------------------------------------------
    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        if peer not in self._nbrs[p]:
            self._refuse_peer(p, peer)
        return (p, k, self._step(p, k))

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> Optional[Tuple[int, int, int]]:
        if peer not in self._nbrs[p]:
            self._refuse_peer(p, peer)
        _src, mctr_m, mpre_m = payload
        self._step(p, k, mpre_m)
        if p in self._cpos and peer not in self._cpos:
            # acknowledge to the non-cover sender (paper: control message
            # with the send index and the receive index at the cover process)
            return self._ack(p, peer, mctr_m, k)
        return None

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
            entry[1][slot] = b
            if k <= complete:
                del open_j[k]
                self._close(j, k, entry)

    # ------------------------------------------------------------------
    def provisional_timestamp(self, eid: EventId) -> CoverTimestamp:
        """Current (possibly provisional) value, for inspection/debugging."""
        ts = self.timestamp(eid)
        if ts is None:
            mpre, mpost = self._open[eid.proc][eid.index]
            ts = CoverTimestamp(
                eid.proc, eid.index, mpre, tuple(mpost), self._cover
            )
        return ts

    def payload_elements(self, payload: Any) -> int:
        """``(id, mctr, mpre)`` on an application message, ``(seq, send
        index, receive index)`` on a control message."""
        mpre = payload[2]
        return 3 if isinstance(mpre, int) else 2 + len(mpre)
