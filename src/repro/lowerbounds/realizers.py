"""Small *offline* vector timestamps via realizer construction.

The flip side of the paper's Section-2 lower bounds: online vector
timestamps need ``n`` entries even on a star, but **offline** (and inline)
timestamps can be far smaller.  By Dushnik–Miller, the smallest offline
vector length for an execution equals the order dimension of its
happened-before poset: a realizer ``{L_1 … L_k}`` (linear extensions whose
intersection is the poset) yields ``k``-element vectors
``(rank_{L_1}(e), …, rank_{L_k}(e))`` that characterize causality under the
standard comparison.

Computing the dimension exactly is NP-hard for ``k ≥ 3``, so this module
offers:

- :func:`greedy_realizer` — a heuristic: repeatedly build a linear
  extension that *reverses* as many still-unreversed incomparable pairs as
  possible (greedy acyclic edge insertion + topological sort), until every
  incomparable pair has been seen in both orders.  The result is a valid
  realizer whose size upper-bounds the dimension.
- :func:`offline_vector_timestamps` — the corresponding vector assignment
  for an execution, exact for dimension ≤ 2 (delegating to the
  orientation-based decision of :mod:`repro.lowerbounds.posets`) and
  heuristic above that.
- :func:`verify_realizer` / :func:`verify_offline_vectors` — independent
  validity checks used by the tests and benchmarks.

Typical numbers (benchmark E14): random star executions of 30+ events over
8 processes need only 2–4 offline elements where online vector clocks are
stuck at ``n = 8`` — while the Charron-Bost executions of
:mod:`repro.lowerbounds.charron_bost` certifiably need all ``n``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.events import EventId
from repro.core.execution import Execution
from repro.lowerbounds.posets import Poset, realizer2

Element = object


class _ReachMatrix:
    """Dense transitive reachability with incremental edge insertion."""

    def __init__(self, elements: Sequence[Element]) -> None:
        self._idx = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        self._n = n
        self._reach = [[False] * n for _ in range(n)]

    def reaches(self, a: Element, b: Element) -> bool:
        return self._reach[self._idx[a]][self._idx[b]]

    def add_edge(self, a: Element, b: Element) -> None:
        """Insert a→b and close transitively (caller checks acyclicity)."""
        ia, ib = self._idx[a], self._idx[b]
        if self._reach[ia][ib]:
            return
        sources = [i for i in range(self._n) if self._reach[i][ia]] + [ia]
        targets = [j for j in range(self._n) if self._reach[ib][j]] + [ib]
        for i in sources:
            row = self._reach[i]
            for j in targets:
                row[j] = True

    def topological_order(
        self, elements: Sequence[Element]
    ) -> List[Element]:
        """A deterministic topological order of the current DAG."""
        # Kahn over the closure's edge set is valid: a DAG's transitive
        # closure is a DAG with the same topological orders.
        indeg = {x: 0 for x in elements}
        for a in elements:
            for b in elements:
                if a is not b and self.reaches(a, b):
                    indeg[b] += 1
        ready = sorted(
            (x for x in elements if indeg[x] == 0), key=repr
        )
        order: List[Element] = []
        remaining = set(elements)
        while ready:
            x = ready.pop(0)
            order.append(x)
            remaining.discard(x)
            newly = []
            for y in remaining:
                if self.reaches(x, y):
                    indeg[y] -= 1
                    if indeg[y] == 0:
                        newly.append(y)
            if newly:
                ready.extend(newly)
                ready.sort(key=repr)
        if len(order) != len(elements):
            raise RuntimeError("cycle in supposed DAG")  # pragma: no cover
        return order


#: the most extensions the greedy heuristic builds before it gives up
MAX_EXTENSIONS = 16


def greedy_realizer(poset: Poset) -> Optional[List[List[Element]]]:
    """A realizer of size ≤ ``MAX_EXTENSIONS``, or ``None`` if the
    heuristic fails.

    Every returned list is a linear extension; their intersection is
    exactly the poset (checked by :func:`verify_realizer` in tests).
    """
    elements = list(poset.elements)
    base_pairs = [
        (a, b)
        for a in elements
        for b in elements
        if a != b and poset.lt(a, b)
    ]
    # demands: ordered pairs (x, y) over incomparable pairs; each must hold
    # in at least one extension
    demands: Set[Tuple[Element, Element]] = set()
    for a, b in poset.incomparable_pairs():
        demands.add((a, b))
        demands.add((b, a))

    if not demands:
        if not elements:
            return []
        reach = _ReachMatrix(elements)
        for a, b in base_pairs:
            reach.add_edge(a, b)
        return [reach.topological_order(elements)]

    extensions: List[List[Element]] = []
    while demands and len(extensions) < MAX_EXTENSIONS:
        reach = _ReachMatrix(elements)
        for a, b in base_pairs:
            reach.add_edge(a, b)
        satisfied_any = False
        for x, y in sorted(demands, key=repr):
            if not reach.reaches(y, x):
                reach.add_edge(x, y)
                satisfied_any = True
        ext = reach.topological_order(elements)
        pos = {e: i for i, e in enumerate(ext)}
        before = len(demands)
        demands = {
            (x, y) for x, y in demands if pos[x] > pos[y]
        }
        if not satisfied_any or len(demands) == before:
            return None  # pragma: no cover - greedy always progresses
        extensions.append(ext)
    if demands:
        return None
    return extensions


def verify_realizer(
    poset: Poset, extensions: Sequence[Sequence[Element]]
) -> bool:
    """Exact check: each a linear extension, intersection == poset."""
    if not extensions:
        return len(poset) <= 1
    positions = []
    for ext in extensions:
        if not poset.is_linear_extension(list(ext)):
            return False
        positions.append({e: i for i, e in enumerate(ext)})
    for a in poset.elements:
        for b in poset.elements:
            if a == b:
                continue
            in_all = all(pos[a] < pos[b] for pos in positions)
            if in_all != poset.lt(a, b):
                return False
    return True


def offline_vector_timestamps(
    execution: Execution,
) -> Optional[Dict[EventId, Tuple[int, ...]]]:
    """Small offline vectors characterizing the execution's causality.

    Tries dimension 2 exactly first (via transitive orientation), then the
    greedy heuristic.  Returns ``None`` only if the heuristic needs more
    than ``MAX_EXTENSIONS`` (rare for the executions in this repository).
    """
    poset = Poset.from_execution(execution)
    r2 = realizer2(poset)
    extensions: Optional[List[List[Element]]]
    if r2 is not None:
        extensions = [list(r2[0]), list(r2[1])]
    else:
        extensions = greedy_realizer(poset)
    if extensions is None:
        return None
    if not extensions:  # zero or one event
        return {eid: (0,) for eid in poset.elements}  # type: ignore[misc]
    positions = [{e: i for i, e in enumerate(ext)} for ext in extensions]
    return {
        e: tuple(pos[e] for pos in positions)  # type: ignore[misc]
        for e in poset.elements
    }


def verify_offline_vectors(
    execution: Execution, vectors: Dict[EventId, Tuple[int, ...]]
) -> bool:
    """Standard-comparison validity check against the ground truth."""
    from repro.lowerbounds.verify import check_vector_assignment

    return check_vector_assignment(execution, vectors).valid
