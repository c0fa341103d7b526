"""Hybrid Logical Clocks (Kulkarni, Demirbas, Madappa, Avva, Leone 2014).

Reference [12] of the paper — its own prior work on *exploiting physical
time*, cited in §5's "Exploiting Physical Time" discussion as the contrast
to the purely asynchronous inline approach.  An HLC timestamp is a pair
``(l, c)``:

- ``l`` tracks the maximum physical clock value heard of (so ``l`` stays
  within the clock-synchronization bound of real time);
- ``c`` is a bounded logical counter breaking ties among events sharing an
  ``l``.

Update rules (the original paper's Algorithm 2):

- local/send at ``j``:  ``l' = max(l, pt_j)``; ``c' = c+1`` if ``l' == l``
  else ``0``;
- receive of ``(l_m, c_m)``:  ``l' = max(l, l_m, pt_j)``; then
  ``c' = max(c, c_m)+1`` if ``l' == l == l_m``, ``c+1`` if ``l' == l``,
  ``c_m+1`` if ``l' == l_m``, else ``0``.

Guarantees: ``e -> f  ⇒  (l_e, c_e) < (l_f, c_f)`` lexicographically
(consistent with causality, *not* characterizing — like Lamport clocks but
pinned to physical time: ``l_e >= pt(e)`` and ``l_e`` never runs ahead of
the maximum physical clock in ``e``'s causal past).

Physical time is injected via a ``time_source(proc) -> float`` callable, so
the same implementation runs under the simulator (virtual time plus
per-process skew) and in the replayer (deterministic synthetic time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.clocks.base import (
    ClockAlgorithm,
    Timestamp,
    total_order_rows,
)
from repro.core.events import ProcessId

#: maps a process id to its current physical-clock reading
TimeSource = Callable[[int], float]


@dataclass(frozen=True, slots=True)
class HLCTimestamp(Timestamp):
    """``(l, c, proc)`` — compared lexicographically (total order)."""

    l: float
    c: int
    proc: int

    def sort_key(self) -> Tuple[float, int, int]:
        """The total order's key: (physical, logical, pid), in that order.

        The physical component ``l`` compares first; the *integer* logical
        counter ``c`` breaks ties among events sharing an ``l`` (which is
        the common case under coarse or frozen physical clocks, e.g. a
        ``counter_time_source`` whose drift collapses readings); the
        process id breaks the remaining ties so concurrent events at the
        same ``(l, c)`` still order deterministically.  Both ``precedes``
        and ``precedes_matrix`` must derive from this one key — comparing
        ``elements()`` (which widens ``c`` to float for size accounting)
        would make the logical/physical tie-breaking depend on float
        coercion instead of this explicit lexicographic rule.
        """
        return (self.l, self.c, self.proc)

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, HLCTimestamp):
            raise TypeError("cannot compare across schemes")
        return self.sort_key() < other.sort_key()

    @classmethod
    def precedes_matrix(cls, timestamps):
        return total_order_rows([t.sort_key() for t in timestamps])

    def elements(self) -> Tuple[float, ...]:
        """Stored elements for size accounting only — never compared."""
        return (self.l, self.c)


def counter_time_source() -> TimeSource:
    """A deterministic synthetic time source for replay-based tests.

    Every call advances a single global counter by 1.0 — perfectly
    synchronized clocks whose reading strictly increases between events.
    """
    state = {"t": 0.0}

    def source(_proc: int) -> float:
        state["t"] += 1.0
        return state["t"]

    return source


class HybridLogicalClock(ClockAlgorithm):
    """Online HLC baseline: 2-element timestamps, consistent, lossy."""

    name = "hlc"
    characterizes_causality = False

    def __init__(
        self,
        n_processes: int,
        time_source: Optional[TimeSource] = None,
    ) -> None:
        super().__init__(n_processes)
        self._time = time_source or counter_time_source()
        self._l = [0.0] * n_processes
        self._c = [0] * n_processes

    # ------------------------------------------------------------------
    def checkpoint(self) -> Any:
        # the time source is the host's clock (a closure over time.time in
        # the live runtime), not algorithm state: it stays with the instance
        import pickle

        state = {k: v for k, v in self.__dict__.items() if k != "_time"}
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)

    def restore(self, state: Any) -> None:
        time_source = self._time
        super().restore(state)
        self._time = time_source

    # ------------------------------------------------------------------
    def _local_step(self, p: ProcessId, k: int) -> None:
        self._expect(p, k)  # before the time source is read: it may count
        pt = self._time(p)
        new_l = max(self._l[p], pt)
        self._c[p] = self._c[p] + 1 if new_l == self._l[p] else 0
        self._l[p] = new_l
        self._stamp(p, k, HLCTimestamp(new_l, self._c[p], p))

    def record_local(self, p: ProcessId, k: int) -> None:
        self._local_step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        self._local_step(p, k)
        return (self._l[p], self._c[p])

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        self._expect(p, k)
        l_m, c_m = payload
        pt = self._time(p)
        old_l = self._l[p]
        new_l = max(old_l, l_m, pt)
        if new_l == old_l and new_l == l_m:
            c = max(self._c[p], c_m) + 1
        elif new_l == old_l:
            c = self._c[p] + 1
        elif new_l == l_m:
            c = c_m + 1
        else:
            c = 0
        self._l[p] = new_l
        self._c[p] = c
        self._stamp(p, k, HLCTimestamp(new_l, c, p))
