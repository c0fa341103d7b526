"""Analytic timestamp-size models (Theorems 4.2, 4.3) and the crossover.

The paper's headline size claims:

- an inline timestamp holds at most ``2·|VC| + 2`` elements (Thm 4.2);
- with at most ``K`` events per process it needs at most
  ``(2·|VC| + 1)·log₂(K+1) + log₂ n`` bits (Thm 4.3);
- a standard vector clock holds ``n`` elements, i.e. ``n·log₂(K+1)`` bits —
  so the inline scheme wins whenever ``|VC| < n/2 − 1``.

These functions are the analytic side of experiments E1/E2; the benchmarks
measure the same quantities from real runs and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks import base as _clock_sizes


def counter_bits(max_events: int) -> int:
    """Bits for one counter element: ``ceil(log₂(K+1))``, at least 1."""
    if max_events < 0:
        raise ValueError("max_events must be >= 0")
    return _clock_sizes.counter_bits(max_events)


def id_bits(n_processes: int) -> int:
    """Bits for a process id: ``ceil(log₂ n)``, at least 1."""
    if n_processes < 1:
        raise ValueError("need at least one process")
    return _clock_sizes.id_bits(n_processes)


def inline_elements(cover_size: int) -> int:
    """Theorem 4.2: elements in an inline timestamp."""
    if cover_size < 0:
        raise ValueError("cover size must be >= 0")
    return 2 * cover_size + 2


def inline_bits(n_processes: int, max_events: int, cover_size: int) -> int:
    """Theorem 4.3: bits in an inline timestamp."""
    return (2 * cover_size + 1) * counter_bits(max_events) + id_bits(
        n_processes
    )


def vector_elements(n_processes: int) -> int:
    """Standard vector clock: one integer per process."""
    if n_processes < 1:
        raise ValueError("need at least one process")
    return n_processes


def vector_bits(n_processes: int, max_events: int) -> int:
    """Standard vector clock size in bits."""
    return n_processes * counter_bits(max_events)


def inline_wins_bits(n_processes: int, max_events: int, cover_size: int) -> bool:
    """Bit-count crossover (accounts for the id element's log n bits)."""
    return inline_bits(n_processes, max_events, cover_size) < vector_bits(
        n_processes, max_events
    )


def crossover_cover_size(n_processes: int, max_events: int) -> int:
    """Largest cover size for which the inline timestamp is smaller (bits).

    Returns -1 when no cover size (even 0) wins — only possible for tiny
    systems where the id element dominates.
    """
    best = -1
    for vc in range(n_processes + 1):
        if inline_wins_bits(n_processes, max_events, vc):
            best = vc
        else:
            break
    return best


@dataclass(frozen=True)
class SizeComparison:
    """One row of the E2 size table."""

    n_processes: int
    max_events: int
    cover_size: int
    inline_elements: int
    vector_elements: int
    inline_bits: int
    vector_bits: int

    @property
    def inline_smaller(self) -> bool:
        return self.inline_bits < self.vector_bits


def compare_sizes(
    n_processes: int, max_events: int, cover_size: int
) -> SizeComparison:
    """Build one analytic comparison row."""
    return SizeComparison(
        n_processes=n_processes,
        max_events=max_events,
        cover_size=cover_size,
        inline_elements=inline_elements(cover_size),
        vector_elements=vector_elements(n_processes),
        inline_bits=inline_bits(n_processes, max_events, cover_size),
        vector_bits=vector_bits(n_processes, max_events),
    )
