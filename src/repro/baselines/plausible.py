"""Plausible clocks (Torres-Rojas & Ahamad 1999) — related work, Section 5.

Constant-size logical clocks that trade accuracy for size: they are
*consistent* with causality (``e -> f`` implies ``ts_e < ts_f``) but may
order concurrent events.  We implement the R-Entries Vector (REV) variant:
a vector of ``R`` entries where process ``i`` owns entry ``i mod R``;
updates follow vector-clock rules on the folded coordinates.

The paper cites plausible clocks as the "shrink the vector and accept
errors" alternative; the benchmarks measure their false-ordering rate
against the inline timestamps' exact answers at comparable sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.clocks.base import (
    ClockAlgorithm,
    Timestamp,
    standard_vector_rows,
    standard_vector_words,
    vector_lt,
)
from repro.core.events import ProcessId


@dataclass(frozen=True, slots=True)
class PlausibleTimestamp(Timestamp):
    """An R-entry folded vector plus the owner's coordinate for tie detail."""

    vector: Tuple[int, ...]
    own: int  # owning coordinate of the event's process

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, PlausibleTimestamp):
            raise TypeError("cannot compare across schemes")
        # standard folded-vector comparison; equality cannot occur for
        # distinct events of the same owner coordinate because the owner
        # entry strictly increases, but distinct processes sharing all
        # entries are possible — treated as concurrent.
        return vector_lt(self.vector, other.vector)

    @classmethod
    def precedes_matrix(cls, timestamps):
        return standard_vector_rows([t.vector for t in timestamps])

    @classmethod
    def precedes_matrix_words(cls, timestamps):
        return standard_vector_words([t.vector for t in timestamps])

    def elements(self) -> Tuple[int, ...]:
        return self.vector


class PlausibleClock(ClockAlgorithm):
    """REV plausible clock with ``R`` entries."""

    name = "plausible-rev"
    characterizes_causality = False

    def __init__(self, n_processes: int, entries: int) -> None:
        super().__init__(n_processes)
        if not 1 <= entries <= n_processes:
            raise ValueError("entries must be in [1, n]")
        self._r = entries
        self._clock: List[List[int]] = [
            [0] * entries for _ in range(n_processes)
        ]

    @property
    def entries(self) -> int:
        return self._r

    def _own(self, proc: int) -> int:
        return proc % self._r

    def _step(
        self, p: ProcessId, k: int, received: Sequence[int] = ()
    ) -> Tuple[int, ...]:
        """Check the index, merge a *received* clock, tick, stamp; returns
        the event's clock."""
        self._expect(p, k)
        clock = self._clock[p]
        for i, v in enumerate(received):
            if v > clock[i]:
                clock[i] = v
        own = self._own(p)
        clock[own] += 1
        entries = tuple(clock)
        self._stamp(p, k, PlausibleTimestamp(entries, own))
        return entries

    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        return self._step(p, k)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        self._step(p, k, payload)
