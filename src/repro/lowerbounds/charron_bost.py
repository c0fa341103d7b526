"""Charron-Bost's construction: vector timestamps need dimension ``n``.

Charron-Bost (1991) — reference [2] of the paper, and the result its
Section 2 generalizes to fixed topologies — showed that there are
executions of ``n`` processes whose causality cannot be captured by vectors
of fewer than ``n`` components, *even offline*.  We reproduce it
constructively and certifiably:

1. :func:`charron_bost_execution` builds the adversarial execution on a
   clique: in stage 1 every process broadcasts to everyone (its first event
   is ``a_i``); in stage 2 process ``p_i`` receives the broadcasts of every
   process **except** ``p_{i+1 mod n}`` (that one message is withheld
   forever); ``b_i`` is the receive completing that set.

2. The events ``a'_i := a_{i+1 mod n}`` and ``b_i`` then form the *standard
   example* crown ``S⁰ₙ`` as an induced subposet of happened-before:
   ``a'_i ∥ b_i`` and ``a'_j < b_i`` for ``j ≠ i``, with the ``a``s and
   ``b``s pairwise concurrent.
   :func:`~repro.lowerbounds.crowns.is_crown_embedding` on the ground-truth
   oracle's ``happened_before`` checks every induced relation, certifying
   (Dushnik–Miller) that the execution's order dimension is at least ``n``
   — hence no ``(n-1)``-element vector assignment, online *or offline*, can
   realize its causality under the standard comparison.

For ``n = 3`` the certified dimension-3 poset lives on a 3-process clique;
the paper's Theorem 4.4 shows the analogous obstruction already appears on
a 4-process *star* (see :mod:`repro.lowerbounds.offline_star` — a star
cannot induce a crown, so that witness uses a different dimension-3 poset,
which is why the exact orientation-based decision procedure is needed
there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.events import EventId
from repro.core.execution import Execution, ExecutionBuilder
from repro.core.happened_before import HappenedBeforeOracle
from repro.lowerbounds.crowns import is_crown_embedding
from repro.topology import generators


@dataclass(frozen=True)
class CrownWitness:
    """An explicit crown ``S⁰ₖ`` embedding: ``a_events[i] ∥ b_events[i]``,
    ``a_events[j] < b_events[i]`` for ``j ≠ i``."""

    a_events: Tuple[EventId, ...]
    b_events: Tuple[EventId, ...]

    @property
    def k(self) -> int:
        return len(self.a_events)

    @property
    def dimension_lower_bound(self) -> int:
        """Dushnik–Miller: a poset containing S⁰ₖ has dimension ≥ k."""
        return self.k


def charron_bost_execution(n: int) -> Tuple[Execution, CrownWitness]:
    """The dimension-``n`` execution on an ``n``-process clique.

    Returns the execution and the crown witness certifying the bound.
    Requires ``n >= 3`` (S⁰₂ has dimension 2, so nothing is certified below
    that).
    """
    if n < 3:
        raise ValueError("the construction needs n >= 3")
    graph = generators.clique(n)
    b = ExecutionBuilder(n, graph=graph)

    # stage 1: everyone broadcasts; a_i is p_i's first event
    msg: dict = {}
    a_events: List[EventId] = []
    for i in range(n):
        first = None
        for j in range(n):
            if j == i:
                continue
            mid = b.send(i, j)
            if first is None:
                first = b.last_event(i).eid
            msg[(i, j)] = mid
        assert first is not None
        a_events.append(first)

    # stage 2: p_i receives everyone's broadcast except p_{i+1}'s;
    # b_i is the completing receive
    b_events: List[EventId] = []
    for i in range(n):
        withheld = (i + 1) % n
        last = None
        for j in range(n):
            if j in (i, withheld):
                continue
            ev = b.receive(i, msg[(j, i)])
            last = ev.eid
        assert last is not None
        b_events.append(last)

    # crown pairing: a'_i = a_{i+1 mod n} is the partner of b_i
    a_primed = tuple(a_events[(i + 1) % n] for i in range(n))
    return b.freeze(), CrownWitness(a_primed, tuple(b_events))


def certified_dimension_lower_bound(n: int) -> int:
    """Build, verify, and return the certified dimension bound for size n.

    Raises ``AssertionError`` if the construction fails verification —
    which would indicate a bug, never an expected outcome.
    """
    execution, witness = charron_bost_execution(n)
    hb = HappenedBeforeOracle(execution).happened_before
    if not is_crown_embedding(hb, witness.a_events, witness.b_events):
        raise AssertionError(
            "Charron-Bost construction failed crown verification"
        )
    return witness.dimension_lower_bound
