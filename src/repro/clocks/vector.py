"""Standard online vector clocks [Fidge 1989/1991, Mattern 1988].

The ``n``-element vector clock with the *standard vector clock comparison*
(componentwise ``<=`` plus inequality).  This is the paper's main online
baseline: it characterizes happened-before exactly, every timestamp is final
the moment the event occurs, and — per Section 2 — its length cannot be
reduced below ``n`` (integer entries) even when the topology is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.clocks.base import (
    ClockAlgorithm,
    Timestamp,
    standard_vector_rows,
    standard_vector_words,
    vector_lt,
)
from repro.core.events import ProcessId


@dataclass(frozen=True, slots=True, init=False)
class VectorTimestamp(Timestamp):
    """An ``n``-element integer vector under the standard comparison."""

    vector: Tuple[int, ...]

    def __init__(self, vector: Tuple[int, ...]) -> None:
        # built once per event by every vector-family clock: one store
        # through the slot descriptor, as ``CoverTimestamp`` does
        _set_vector(self, vector)

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, VectorTimestamp):
            raise TypeError("cannot compare across schemes")
        return vector_lt(self.vector, other.vector)

    @classmethod
    def precedes_matrix(cls, timestamps):
        return standard_vector_rows([t.vector for t in timestamps])

    @classmethod
    def precedes_matrix_words(cls, timestamps):
        return standard_vector_words([t.vector for t in timestamps])

    def elements(self) -> Tuple[int, ...]:
        return self.vector

    @property
    def n_elements(self) -> int:
        return len(self.vector)

    def __getitem__(self, k: int) -> int:
        return self.vector[k]


_set_vector = VectorTimestamp.vector.__set__  # type: ignore[attr-defined]
# the generated __init__'s signature, ``-> None`` not PEP 563's ``-> 'None'``
VectorTimestamp.__init__.__annotations__["return"] = None


class VectorClock(ClockAlgorithm):
    """Online Fidge/Mattern vector clock of length ``n``."""

    name = "vector"
    characterizes_causality = True

    def __init__(self, n_processes: int) -> None:
        super().__init__(n_processes)
        self._clock = [[0] * n_processes for _ in range(n_processes)]

    def _step(
        self, p: ProcessId, k: int, received: Sequence[int] = ()
    ) -> Tuple[int, ...]:
        """Check the index, merge a *received* vector, tick, stamp; returns
        the event's vector."""
        stamps = self._stamps[p]
        if k != len(stamps) + 1:
            self._expect(p, k)
        clock = self._clock[p]
        for i, v in enumerate(received):
            if v > clock[i]:
                clock[i] = v
        clock[p] += 1
        vector = tuple(clock)
        stamps.append(VectorTimestamp(vector))
        self._newly_finalized.append((p, k))
        return vector

    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        return self._step(p, k)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        self._step(p, k, payload)

    def payload_elements(self, payload: Any) -> int:
        return len(payload)
