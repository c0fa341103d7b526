"""Prime-encoded clocks (Shen, Kshemkalyani & Khokhar 2013) — Section 5.

Encodes a full vector clock as a single integer: process ``i`` is assigned
the ``i``-th prime ``p_i`` and the clock value is ``∏ p_i^{v_i}``.  Ticking
multiplies by the process's own prime; merging takes the LCM; comparison is
divisibility.  The scheme characterizes causality exactly — it *is* a
vector clock — but its "single element" is a big integer whose bit-length
grows with the whole system's history, which is precisely the trade-off the
benchmarks quantify against the inline timestamps' fixed per-element bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.clocks.base import ClockAlgorithm, Timestamp
from repro.core.events import ProcessId


def first_primes(k: int) -> List[int]:
    """The first *k* primes (simple incremental sieve)."""
    if k < 1:
        return []
    primes: List[int] = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


@dataclass(frozen=True, slots=True)
class EncodedTimestamp(Timestamp):
    """A single integer ``∏ p_i^{v_i}``; comparison is strict divisibility."""

    value: int

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, EncodedTimestamp):
            raise TypeError("cannot compare across schemes")
        return self.value != other.value and other.value % self.value == 0

    def elements(self) -> Tuple[int, ...]:
        return (self.value,)

    @property
    def bit_length(self) -> int:
        return self.value.bit_length()


class EncodedClock(ClockAlgorithm):
    """Single-big-integer vector clock via prime-power encoding."""

    name = "encoded-prime"
    characterizes_causality = True

    def __init__(self, n_processes: int) -> None:
        super().__init__(n_processes)
        self._primes = first_primes(n_processes)
        self._value: List[int] = [1] * n_processes

    def _step(self, p: ProcessId, k: int, received: int = 1) -> int:
        """Check the index, merge a *received* value (lcm), tick, stamp;
        returns the value."""
        self._expect(p, k)
        mine = self._value[p]
        if received != 1:  # a local event or a send: no big-integer gcd
            mine = mine * received // math.gcd(mine, received)
        self._value[p] = mine = mine * self._primes[p]
        self._stamp(p, k, EncodedTimestamp(mine))
        return mine

    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        return self._step(p, k)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        self._step(p, k, payload)

    def timestamp_bits(self, ts: Timestamp, max_events: int) -> int:
        """Actual storage cost: the big integer's bit length."""
        assert isinstance(ts, EncodedTimestamp)
        return max(1, ts.bit_length)
