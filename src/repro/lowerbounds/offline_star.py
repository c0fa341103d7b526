"""Theorem 4.4: no 2-element offline timestamps on the 4-process star.

The paper states (proof in the companion arXiv report [23]) that on a star
of 4 processes there are executions for which **no** offline algorithm can
assign distinct 2-element vectors whose standard vector-clock comparison
captures happened-before.  Via the Dushnik–Miller correspondence (see
:mod:`repro.lowerbounds.posets`) this is equivalent to exhibiting an
execution whose happened-before poset has order dimension ≥ 3.

This module provides:

- :func:`theorem_4_4_witness` — a fixed 11-event execution on the 4-process
  star whose event poset provably (checked by the exact decision procedure)
  has dimension ≥ 3;
- :func:`find_high_dimension_execution` — a randomized search that
  rediscovers such executions from scratch, demonstrating they are not
  rare corner cases;
- :func:`offline_two_element_assignment` — the constructive converse: for
  executions of dimension ≤ 2 it *builds* a valid 2-element offline
  assignment, showing the dimension criterion is exactly the obstruction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.events import EventId
from repro.core.execution import Execution, ExecutionBuilder
from repro.lowerbounds.posets import (
    Poset,
    has_dimension_at_most_2,
    two_element_vectors,
)
from repro.topology import generators


def theorem_4_4_witness() -> Execution:
    """A fixed 4-process star execution with order dimension ≥ 3.

    11 events, 6 messages (one deliberately left undelivered — its send
    event's concurrency pattern is essential).  Shape::

        p3 --m0--> p0 --m1--> p3          (round trip with radial 3)
                   p0 --m2--> p1          (update to radial 1)
        p1 --m4--> (in flight forever)
        p2 --m3--> p0 --m5--> p2          (round trip with radial 2)

    The test suite verifies with the exact order-dimension-2 decision
    procedure that this poset admits no 2-element realizer.
    """
    graph = generators.star(4)
    b = ExecutionBuilder(4, graph=graph)
    m0 = b.send(3, 0)   # e1@p3
    b.receive(0, m0)    # e1@p0
    m1 = b.send(0, 3)   # e2@p0
    m2 = b.send(0, 1)   # e3@p0
    b.receive(3, m1)    # e2@p3
    b.send(1, 0)        # e1@p1 — never delivered
    b.receive(1, m2)    # e2@p1
    m3 = b.send(2, 0)   # e1@p2
    b.receive(0, m3)    # e4@p0
    m5 = b.send(0, 2)   # e5@p0
    b.receive(2, m5)    # e2@p2
    return b.freeze()


def execution_dimension_exceeds_2(execution: Execution) -> bool:
    """Whether the execution's happened-before poset has dimension > 2."""
    return not has_dimension_at_most_2(Poset.from_execution(execution))


def offline_two_element_assignment(
    execution: Execution,
) -> Optional[Dict[EventId, Tuple[int, int]]]:
    """A valid 2-element offline vector assignment, when one exists.

    Returns ``None`` exactly when the execution's poset has dimension > 2 —
    for example for :func:`theorem_4_4_witness`.  When an assignment is
    returned it satisfies, for all distinct events ``e, f``:
    ``e -> f`` iff ``vec(e) < vec(f)`` (standard comparison), with all
    vectors distinct.
    """
    result = two_element_vectors(Poset.from_execution(execution))
    if result is None:
        return None
    return {eid: vec for eid, vec in result.items()}  # type: ignore[misc]


def random_star_execution(
    rng: random.Random, n: int = 4, steps: int = 12
) -> Execution:
    """A random star execution: each step delivers a pending message or
    sends a new one (radial→centre or centre→radial)."""
    graph = generators.star(n)
    b = ExecutionBuilder(n, graph=graph)
    in_flight: list[Tuple[int, int]] = []
    for _ in range(steps):
        if in_flight and rng.random() < 0.45:
            idx = rng.randrange(len(in_flight))
            msg_id, dst = in_flight.pop(idx)
            b.receive(dst, msg_id)
        else:
            src = rng.randrange(n)
            dst = 0 if src != 0 else rng.randrange(1, n)
            msg_id = b.send(src, dst)
            in_flight.append((msg_id, dst))
    return b.freeze()


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the randomized Theorem-4.4 search."""

    trials: int
    found: Optional[Execution]

    @property
    def success(self) -> bool:
        return self.found is not None


def find_high_dimension_execution(
    seed: int = 0,
    max_trials: int = 2000,
) -> SearchOutcome:
    """Randomly search for a 4-process, 12-step star execution of order
    dimension ≥ 3.

    A witness typically appears within a few dozen trials — evidence that
    Theorem 4.4's obstruction is generic, not a knife-edge construction.
    """
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        ex = random_star_execution(rng, n=4, steps=12)
        if execution_dimension_exceeds_2(ex):
            return SearchOutcome(trials=trial, found=ex)
    return SearchOutcome(trials=max_trials, found=None)
