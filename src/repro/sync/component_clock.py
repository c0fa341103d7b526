"""Component timestamps for synchronous computations.

The inline idea of the paper, transplanted to the synchronous model of
Garg & Skawratananond [10, 11]: fix a star/triangle edge decomposition with
``d`` components; within each component, synchronous message events are
totally ordered (any two share an endpoint), so a component's messages can
serve as *proxies* exactly like the cover processes do in Section 4.  Each
event ``e`` carries

- its participant ids and local index (``ctr``),
- ``V_e[j]`` — the number of component-``j`` messages in ``e``'s causal
  past (``max ∅ = 0``); because those messages are totally ordered, this
  identifies a prefix;
- ``W_e[j]`` — the index of the first component-``j`` message ``m`` with
  ``e ⪯ m`` **at one of e's own processes** (``min ∅ = ∞``).

Comparison (checked by :func:`timestamp_mismatches` against the core
oracle): events sharing a process compare by local index; otherwise
``e → f  iff  ∃j: W_e[j] ≤ V_f[j]`` — the first hop of any causal path out
of ``e``'s processes is a message at one of them, and the component total
order bridges it to the last component message below ``f``.

Like the paper's ``mpost``, ``W`` is *inline*: entry ``j`` becomes known
when one of the event's processes participates in its next component-``j``
message (message events know their own component's entry immediately), and
entries for components not incident to the event's processes stay ``∞``
without blocking finalization.  The timestamp has at most ``2d + 4``
stored elements (message events carry two ids and two local indices),
compared with ``n`` for vector clocks and the ``d + 4`` of [10, 11] (which
exploits synchrony more aggressively; our variant trades a few elements for
sharing the paper's pre/post machinery — the relationship the paper's §5
discusses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.clocks.base import INFINITY
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.sync.decomposition import Decomposition
from repro.sync.model import Joint, joint_happened_before

Value = Union[int, float]

#: an event still waiting on a ``W`` entry: procs, ctr, V, W so far, and the
#: components whose entry is still unknown
_Open = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], List[Value], Set[int]]


@dataclass(frozen=True)
class ComponentTimestamp:
    """The component timestamp of a synchronous event."""

    procs: Tuple[int, ...]
    ctr: Tuple[int, ...]  # local index per participant, aligned with procs
    v: Tuple[int, ...]  # per-component causal-past message counts
    w: Tuple[Value, ...]  # per-component first-future message index

    def precedes(self, other: "ComponentTimestamp") -> bool:
        if len(self.w) != len(other.v):
            raise ValueError("timestamps come from different decompositions")
        shared = set(self.procs) & set(other.procs)
        if shared:
            p = min(shared)
            return self.ctr[self.procs.index(p)] < other.ctr[other.procs.index(p)]
        return any(wj <= vj for wj, vj in zip(self.w, other.v))

    def elements(self) -> Tuple[Value, ...]:
        return self.procs + self.ctr + self.v + self.w

    @property
    def n_elements(self) -> int:
        return len(self.elements())


class ComponentSyncClock:
    """Assigns component timestamps to a synchronous computation's joint
    events, fed one :meth:`record` step each and named by their position in
    creation order.  It counts each process's joint events itself, so
    ``ctr`` is a joint index, not an asynchronous event's.

    The clock is *inline*: :meth:`timestamp` returns ``None`` while an
    event's ``W`` entries for incident components are still unknown;
    :meth:`finalize_at_termination` turns the remaining ``∞`` entries
    permanent (no further component messages will occur).  A timestamp is
    built once, when its event becomes final.
    """

    def __init__(self, decomposition: Decomposition) -> None:
        self._dec = decomposition
        self._d = decomposition.d
        n = decomposition.graph.n_vertices
        #: per-process current knowledge of component counts
        self._v: List[List[int]] = [[0] * self._d for _ in range(n)]
        #: per process, its joint events so far
        self._ctr = [0] * n
        #: incident components per process
        self._incident: List[Tuple[int, ...]] = [
            decomposition.components_of_vertex(p) for p in range(n)
        ]
        #: per event uid, its timestamp once final
        self._stamps: List[Optional[ComponentTimestamp]] = []
        #: per process, ``{uid: open entry}`` of its events still ``⊥``; an
        #: entry is dropped from every participant when it closes
        self._open: List[Dict[int, _Open]] = [{} for _ in range(n)]
        self._newly_final: List[int] = []

    # ------------------------------------------------------------------
    def record(self, proc: int, peer: Optional[int] = None) -> int:
        """Feed the next joint event: internal to *proc*, or a message
        between *proc* and *peer*.  Returns its uid."""
        uid = len(self._stamps)
        self._stamps.append(None)
        w: List[Value] = [INFINITY] * self._d
        needed = set(self._incident[proc])
        if peer is None:
            procs: Tuple[int, ...] = (proc,)
            v = tuple(self._v[proc])
        else:
            procs = (min(proc, peer), max(proc, peer))
            j = self._dec.component_of_edge(proc, peer)
            merged = list(map(max, self._v[proc], self._v[peer]))
            merged[j] += 1
            self._v[proc] = merged
            self._v[peer] = list(merged)
            v = tuple(merged)
            w[j] = merged[j]
            needed.update(self._incident[peer])
            needed.discard(j)
            # this message resolves pending W[j] entries at both endpoints
            for p in procs:
                self._resolve(p, j, merged[j])
        for p in procs:
            self._ctr[p] += 1
        entry = (procs, tuple(self._ctr[p] for p in procs), v, w, needed)
        if needed:
            for p in procs:
                self._open[p][uid] = entry
        else:
            self._close(uid, entry)
        return uid

    def _resolve(self, p: int, j: int, index: int) -> None:
        """A component-j message with *index* occurred at *p*: it is the
        first future component-j message for every open event of p that
        still lacks W[j]."""
        for uid, entry in list(self._open[p].items()):
            needed = entry[4]
            if j in needed:
                entry[3][j] = index
                needed.discard(j)
                if not needed:
                    self._close(uid, entry)

    def _close(self, uid: int, entry: _Open) -> None:
        """An event's ``W`` is permanent: build its timestamp, once."""
        procs, ctr, v, w, _needed = entry
        self._stamps[uid] = ComponentTimestamp(procs, ctr, v, tuple(w))
        for p in procs:
            self._open[p].pop(uid, None)
        self._newly_final.append(uid)

    # ------------------------------------------------------------------
    def replay(self, execution: Execution, joints: Sequence[Joint]) -> None:
        """Record every joint event of *execution* in creation order."""
        for first, _last in joints:
            self.record(first.proc, execution.event(first).peer)

    def finalize_at_termination(self) -> None:
        """No more events: remaining ∞ entries are permanent."""
        for open_p in self._open:
            for uid, entry in list(open_p.items()):
                self._close(uid, entry)

    def drain_newly_finalized(self) -> List[int]:
        """Event uids finalized since the last drain (for timing hosts)."""
        out = self._newly_final
        self._newly_final = []
        return out

    # ------------------------------------------------------------------
    def is_final(self, uid: int) -> bool:
        return self._stamps[uid] is not None

    def timestamp(self, uid: int) -> Optional[ComponentTimestamp]:
        return self._stamps[uid]

    @property
    def d(self) -> int:
        return self._d

    def max_elements(self) -> int:
        """Stored elements of the widest final timestamp."""
        return max(
            (ts.n_elements for ts in self._stamps if ts is not None), default=0
        )


def timestamp_mismatches(
    clock: ComponentSyncClock, execution: Execution, joints: Sequence[Joint]
) -> List[Tuple[int, int]]:
    """Every ordered pair of joint events (as uids) on which the finalized
    *clock*'s ``precedes`` disagrees with joint happened-before on the core
    oracle."""
    oracle = HappenedBeforeOracle(execution)
    stamps = [clock.timestamp(uid) for uid in range(len(joints))]
    return [
        (i, k)
        for i, e in enumerate(joints)
        for k, f in enumerate(joints)
        if i != k
        and stamps[i].precedes(stamps[k])  # type: ignore[union-attr]
        != joint_happened_before(oracle, e, f)
    ]
