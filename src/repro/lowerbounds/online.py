"""Online vector-timestamp schemes for the lower-bound experiments.

Section 2 of the paper proves that *online* algorithms whose timestamps are
vectors compared with the standard vector-clock comparison cannot be short:
length ``n`` is necessary on a star graph for integer entries (Lemma 2.2),
``n-1`` for real entries (Lemma 2.1), ``n`` for any 2-connected graph
(Lemma 2.3) and ``|X|`` for connectivity-1 graphs (Lemma 2.4).

To make those proofs *executable*, this module defines the interface the
adversaries attack — an online scheme assigns a permanent, fixed-length
vector to every event the moment it occurs — and a family of candidate
schemes of tunable length ``s``:

- :class:`FullVectorScheme` — the standard vector clock (``s = n``); the
  only candidate that survives every adversary.
- :class:`FoldedVectorScheme` — integer vectors of length ``s`` obtained by
  folding process ``i`` onto coordinate ``i mod s`` (a "plausible clock"
  style compression).  Consistent but not characterizing for ``s < n``.
- :class:`ProjectedVectorScheme` — real-valued vectors of length ``s``:
  random positive linear projections of the true vector clock.  Monotone
  under causality, hence consistent; the Lemma 2.1 adversary finds the
  concurrent pair it wrongly orders.
- :class:`DroppedCoordinateScheme` — the true vector clock with one process
  coordinate dropped (``s = n-1``): events of the dropped process reuse the
  remaining coordinates.

Schemes are deliberately *online*: ``vector_of`` must return the permanent
value immediately after the event hook runs, and the adversaries exploit
exactly that.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, List, Tuple

from repro.clocks.vector import VectorClock
from repro.core.events import Event, EventId


class OnlineVectorScheme(abc.ABC):
    """An online algorithm assigning fixed-length vector timestamps.

    The host calls the event hooks in real-time order; ``vector_of`` must
    already return the permanent vector for any event that has occurred.
    """

    #: vector length; set by concrete schemes
    length: int
    #: whether entries are guaranteed integers (Lemma 2.2) or reals (2.1)
    integer_valued: bool

    def __init__(self, n_processes: int, length: int) -> None:
        if length < 1:
            raise ValueError("vector length must be >= 1")
        self.n_processes = n_processes
        self.length = length

    @abc.abstractmethod
    def on_local(self, ev: Event) -> None: ...

    @abc.abstractmethod
    def on_send(self, ev: Event) -> Any:
        """Returns the piggybacked payload."""

    @abc.abstractmethod
    def on_receive(self, ev: Event, payload: Any) -> None: ...

    @abc.abstractmethod
    def vector_of(self, eid: EventId) -> Tuple[float, ...]: ...


class _VCBacked(OnlineVectorScheme):
    """Base for schemes derived from a hidden full vector clock."""

    def __init__(self, n_processes: int, length: int) -> None:
        super().__init__(n_processes, length)
        self._vc = VectorClock(n_processes)
        self._vectors: Dict[EventId, Tuple[float, ...]] = {}

    def _derive(self, full: Tuple[int, ...], eid: EventId) -> Tuple[float, ...]:
        raise NotImplementedError

    def _capture(self, ev: Event) -> None:
        ts = self._vc.timestamp(ev.eid)
        assert ts is not None
        self._vectors[ev.eid] = self._derive(ts.vector, ev.eid)

    def on_local(self, ev: Event) -> None:
        self._vc.on_local(ev)
        self._capture(ev)

    def on_send(self, ev: Event) -> Any:
        payload = self._vc.on_send(ev)
        self._capture(ev)
        return payload

    def on_receive(self, ev: Event, payload: Any) -> None:
        self._vc.on_receive(ev, payload)
        self._capture(ev)

    def vector_of(self, eid: EventId) -> Tuple[float, ...]:
        return self._vectors[eid]


class FullVectorScheme(_VCBacked):
    """The standard length-``n`` vector clock (the correct upper bound)."""

    integer_valued = True

    def __init__(self, n_processes: int) -> None:
        super().__init__(n_processes, n_processes)

    def _derive(self, full: Tuple[int, ...], eid: EventId) -> Tuple[float, ...]:
        return tuple(full)


class FoldedVectorScheme(_VCBacked):
    """Integer compression: coordinate ``i mod s`` accumulates process i.

    For each folded coordinate we keep the *sum* of the constituent
    processes' entries: causally monotone (consistent), but two concurrent
    events can appear ordered once ``s < n``.
    """

    integer_valued = True

    def __init__(self, n_processes: int, length: int) -> None:
        super().__init__(n_processes, length)

    def _derive(self, full: Tuple[int, ...], eid: EventId) -> Tuple[float, ...]:
        out = [0] * self.length
        for i, v in enumerate(full):
            out[i % self.length] += v
        return tuple(out)


class ProjectedVectorScheme(_VCBacked):
    """Real-valued compression via random positive linear projections.

    Coordinate ``l`` is ``sum_i w[l][i] * vc[i]`` with strictly positive
    weights, so each coordinate is strictly monotone along causal chains —
    the scheme is consistent for any ``s``, making it a serious candidate
    that only an adversarial execution can refute when ``s <= n-2``.
    """

    integer_valued = False

    def __init__(self, n_processes: int, length: int, seed: int = 0) -> None:
        super().__init__(n_processes, length)
        rng = random.Random(seed)
        self._weights: List[List[float]] = [
            [rng.uniform(0.1, 1.0) for _ in range(n_processes)]
            for _ in range(length)
        ]

    def _derive(self, full: Tuple[int, ...], eid: EventId) -> Tuple[float, ...]:
        return tuple(
            sum(w * v for w, v in zip(row, full)) for row in self._weights
        )


class DroppedCoordinateScheme(_VCBacked):
    """The true vector clock with the coordinate of *dropped* removed.

    Events at the dropped process are still timestamped (with the remaining
    coordinates), so causality *through* that process is under-represented —
    the classic way one might hope to save an entry on a star graph by
    dropping the hub, which Lemma 2.2 shows cannot work.
    """

    integer_valued = True

    def __init__(self, n_processes: int, dropped: int = 0) -> None:
        if n_processes < 2:
            raise ValueError("need at least 2 processes")
        if not 0 <= dropped < n_processes:
            raise ValueError("dropped coordinate out of range")
        super().__init__(n_processes, n_processes - 1)
        self._dropped = dropped

    def _derive(self, full: Tuple[int, ...], eid: EventId) -> Tuple[float, ...]:
        return tuple(
            v for i, v in enumerate(full) if i != self._dropped
        )
