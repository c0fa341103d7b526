"""Lamport scalar clocks [Lamport 1978].

The classic 1-element logical clock: consistent with causality
(``e -> f`` implies ``L(e) < L(f)``) but *not characterizing* — concurrent
events may receive ordered clock values.  Included as the minimal baseline
for the size/accuracy trade-off benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.clocks.base import (
    ClockAlgorithm,
    Timestamp,
    total_order_rows,
)
from repro.core.events import ProcessId


@dataclass(frozen=True, slots=True)
class LamportTimestamp(Timestamp):
    """``(clock, proc)`` — the process id is used only for tie-breaking."""

    clock: int
    proc: int

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, LamportTimestamp):
            raise TypeError("cannot compare across schemes")
        # Total order (Lamport's tie-break by process id).  This *claims*
        # more order than happened-before provides; the scheme is marked
        # non-characterizing.
        return (self.clock, self.proc) < (other.clock, other.proc)

    @classmethod
    def precedes_matrix(cls, timestamps):
        return total_order_rows([(t.clock, t.proc) for t in timestamps])

    def elements(self) -> Tuple[int, ...]:
        return (self.clock,)


class LamportClock(ClockAlgorithm):
    """Online scalar clock; every timestamp is final immediately."""

    name = "lamport"
    characterizes_causality = False

    def __init__(self, n_processes: int) -> None:
        super().__init__(n_processes)
        self._clock = [0] * n_processes

    def _tick(self, p: ProcessId, k: int, floor: int = 0) -> int:
        self._expect(p, k)
        clock = self._clock[p] = max(self._clock[p], floor) + 1
        self._stamp(p, k, LamportTimestamp(clock, p))
        return clock

    def record_local(self, p: ProcessId, k: int) -> None:
        self._tick(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        return self._tick(p, k)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        self._tick(p, k, floor=int(payload))
