"""Online vector-timestamp schemes for the lower-bound experiments.

Section 2 of the paper proves that *online* algorithms whose timestamps are
vectors compared with the standard vector-clock comparison cannot be short:
length ``n`` is necessary on a star graph for integer entries (Lemma 2.2),
``n-1`` for real entries (Lemma 2.1), ``n`` for any 2-connected graph
(Lemma 2.3) and ``|X|`` for connectivity-1 graphs (Lemma 2.4).

The adversaries attack :class:`~repro.clocks.base.ClockAlgorithm`\\ s whose
timestamps are :class:`~repro.clocks.vector.VectorTimestamp`\\ s: the
standard :class:`~repro.clocks.vector.VectorClock` (``s = n``, the only
candidate that survives every adversary) and this module's family of
candidates of tunable length ``s``.  Each candidate is a vector clock that
piggybacks the full vector but stamps every event, the moment it occurs,
with a shorter vector derived from it:

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

Stamps are permanent the moment a record step returns, and the adversaries
exploit exactly that.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add, mul
from typing import List, Sequence, Tuple

from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.core.events import ProcessId


class _DerivedVectorClock(VectorClock):
    """A vector clock that stamps each event with a vector of length
    :attr:`length` derived from its full vector; the payload stays the full
    vector."""

    characterizes_causality = False

    def __init__(self, n_processes: int, length: int) -> None:
        if length < 1:
            raise ValueError("vector length must be >= 1")
        super().__init__(n_processes)
        self.length = length

    def _derive(self, full: Tuple[int, ...]) -> Tuple[float, ...]:
        raise NotImplementedError

    def _step(
        self, p: ProcessId, k: int, received: Sequence[int] = ()
    ) -> Tuple[int, ...]:
        full = super()._step(p, k, received)
        self._stamps[p][-1] = VectorTimestamp(self._derive(full))
        return full


class FoldedVectorScheme(_DerivedVectorClock):
    """Integer compression: coordinate ``i mod s`` accumulates process i.

    For each folded coordinate we keep the *sum* of the constituent
    processes' entries: causally monotone (consistent), but two concurrent
    events can appear ordered once ``s < n``.
    """

    name = "folded"

    def _derive(self, full: Tuple[int, ...]) -> Tuple[float, ...]:
        out = [0] * self.length
        for i, v in enumerate(full):
            out[i % self.length] += v
        return tuple(out)


class ProjectedVectorScheme(_DerivedVectorClock):
    """Real-valued compression via random positive linear projections.

    Coordinate ``l`` is ``sum_i w[l][i] * vc[i]`` with strictly positive
    weights, so each coordinate is strictly monotone along causal chains —
    the scheme is consistent for any ``s``, making it a serious candidate
    that only an adversarial execution can refute when ``s <= n-2``.
    """

    name = "projected"

    def __init__(self, n_processes: int, length: int, seed: int = 0) -> None:
        super().__init__(n_processes, length)
        rng = random.Random(seed)
        self._weights: List[List[float]] = [
            [rng.uniform(0.1, 1.0) for _ in range(n_processes)]
            for _ in range(length)
        ]

    def _derive(self, full: Tuple[int, ...]) -> Tuple[float, ...]:
        # added left to right on every interpreter: from Python 3.12 on,
        # ``sum`` compensates float rounding and moves the last digit
        return tuple(reduce(add, map(mul, row, full)) for row in self._weights)


class DroppedCoordinateScheme(_DerivedVectorClock):
    """The true vector clock with the coordinate of *dropped* removed.

    Events at the dropped process are still timestamped (with the remaining
    coordinates), so causality *through* that process is under-represented —
    the classic way one might hope to save an entry on a star graph by
    dropping the hub, which Lemma 2.2 shows cannot work.
    """

    name = "dropped"

    def __init__(self, n_processes: int, dropped: int = 0) -> None:
        if n_processes < 2:
            raise ValueError("need at least 2 processes")
        if not 0 <= dropped < n_processes:
            raise ValueError("dropped coordinate out of range")
        super().__init__(n_processes, n_processes - 1)
        self._dropped = dropped

    def _derive(self, full: Tuple[int, ...]) -> Tuple[float, ...]:
        return full[: self._dropped] + full[self._dropped + 1 :]
