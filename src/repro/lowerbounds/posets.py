"""Finite posets, order dimension ≤ 2, and two-element realizers.

Theorem 4.4 states that on a 4-process star no *offline* algorithm can
assign 2-element vectors whose standard vector-clock comparison captures
happened-before.  The bridge to classic order theory:

    A finite poset admits a 2-element integer-vector assignment (distinct
    vectors, standard comparison) **iff** its order dimension is ≤ 2,
    **iff** its incomparability graph is transitively orientable
    (a comparability graph).

(⇐) A realizer ``{L1, L2}`` yields vectors ``(rank_L1, rank_L2)``; the
vectors are distinct and componentwise-ordered exactly for comparable
pairs.  (⇒) Given a valid assignment, sorting lexicographically by
``(x, y)`` and by ``(y, x)`` yields two linear extensions whose
intersection is the poset — note ties in a single coordinate are impossible
for incomparable pairs, since a tie would force the standard comparison to
order them.

Transitive orientability is decided with Golumbic's implication-class
(forcing) algorithm: orient an unoriented edge arbitrarily, close under the
forcing relation, fail on a doubly-forced edge; by Golumbic's theorem the
arbitrary choices are safe.  We additionally verify the final orientation's
transitivity as a defensive assertion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle

Element = Hashable


class Poset:
    """A finite strict partial order over arbitrary hashable elements."""

    def __init__(
        self,
        elements: Sequence[Element],
        less_than: Set[Tuple[Element, Element]],
    ) -> None:
        self._elements: Tuple[Element, ...] = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise ValueError("duplicate elements")
        eset = set(self._elements)
        for a, b in less_than:
            if a not in eset or b not in eset:
                raise ValueError(f"relation pair ({a}, {b}) uses unknown element")
            if a == b:
                raise ValueError("strict order cannot be reflexive")
        self._lt: Set[Tuple[Element, Element]] = set(less_than)
        self._check_strict_order()

    def _check_strict_order(self) -> None:
        for a, b in self._lt:
            if (b, a) in self._lt:
                raise ValueError(f"antisymmetry violated on ({a}, {b})")
        for a, b in list(self._lt):
            for c in self._elements:
                if (b, c) in self._lt and (a, c) not in self._lt:
                    raise ValueError(
                        f"relation not transitive: {a}<{b}<{c} but not {a}<{c}"
                    )

    @classmethod
    def _trusted(
        cls,
        elements: Sequence[Element],
        less_than: Set[Tuple[Element, Element]],
    ) -> "Poset":
        """Construct without the ``O(|lt|·m)`` strict-order validation.

        Only for callers whose relation is a strict order *by construction*
        (e.g. the oracle's transitively-closed causal-past masks).
        """
        poset = cls.__new__(cls)
        poset._elements = tuple(elements)
        poset._lt = set(less_than)
        return poset

    @classmethod
    def from_execution(cls, execution: Execution) -> "Poset":
        """The happened-before poset of an execution's events.

        Reads the relation straight off the oracle's causal-past bitmasks —
        one mask decode per event instead of ``m²`` oracle queries — and
        skips re-validating it: happened-before is a strict order by
        construction.
        """
        oracle = HappenedBeforeOracle(execution)
        order = oracle.event_order
        lt: Set[Tuple[Element, Element]] = set()
        for j, mask in enumerate(oracle.past_masks()):
            f = order[j]
            while mask:
                low = mask & -mask
                lt.add((order[low.bit_length() - 1], f))
                mask ^= low
        return cls._trusted(order, lt)

    # ------------------------------------------------------------------
    @property
    def elements(self) -> Tuple[Element, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def lt(self, a: Element, b: Element) -> bool:
        return (a, b) in self._lt

    def comparable(self, a: Element, b: Element) -> bool:
        return (a, b) in self._lt or (b, a) in self._lt

    def incomparable_pairs(self) -> List[Tuple[Element, Element]]:
        """Unordered pairs of distinct incomparable elements."""
        out = []
        for i, a in enumerate(self._elements):
            for b in self._elements[i + 1 :]:
                if not self.comparable(a, b):
                    out.append((a, b))
        return out

    def is_linear_extension(self, order: Sequence[Element]) -> bool:
        """Whether *order* is a total order of the elements respecting lt."""
        if sorted(map(hash, order)) != sorted(map(hash, self._elements)) or len(
            order
        ) != len(self._elements):
            return False
        pos = {x: i for i, x in enumerate(order)}
        return all(pos[a] < pos[b] for a, b in self._lt)


# ----------------------------------------------------------------------
# transitive orientation (Golumbic's forcing algorithm)
# ----------------------------------------------------------------------
def transitive_orientation(
    vertices: Sequence[Element], edges: Set[FrozenSet[Element]]
) -> Optional[Dict[Tuple[Element, Element], bool]]:
    """A transitive orientation of an undirected graph, or ``None``.

    Returns a set of directed pairs represented as a dict keyed by
    ``(a, b)`` (present key ⇒ edge oriented a→b) when the graph is a
    comparability graph.
    """
    adj: Dict[Element, Set[Element]] = {v: set() for v in vertices}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)

    oriented: Set[Tuple[Element, Element]] = set()
    undecided = set(edges)

    def close(seed: Tuple[Element, Element]) -> bool:
        """Close the forcing class of *seed*; False on contradiction."""
        stack = [seed]
        while stack:
            a, b = stack.pop()
            if (b, a) in oriented:
                return False
            if (a, b) in oriented:
                continue
            oriented.add((a, b))
            undecided.discard(frozenset((a, b)))
            # Γ-forcing: a→b forces a→c when c ~ a and c !~ b,
            #            and forces c→b when c ~ b and c !~ a.
            for c in adj[a]:
                if c != b and c not in adj[b]:
                    stack.append((a, c))
            for c in adj[b]:
                if c != a and c not in adj[a]:
                    stack.append((c, b))
        return True

    while undecided:
        u, v = tuple(next(iter(undecided)))
        if not close((u, v)):
            return None

    # Defensive transitivity verification (Golumbic's theorem guarantees it
    # when no forcing contradiction occurred).
    out_neighbors: Dict[Element, Set[Element]] = {v: set() for v in vertices}
    for a, b in oriented:
        out_neighbors[a].add(b)
    for a in vertices:
        for b in out_neighbors[a]:
            for c in out_neighbors[b]:
                if c not in out_neighbors[a]:
                    return None  # pragma: no cover - theory says unreachable
    return {pair: True for pair in oriented}


def has_dimension_at_most_2(poset: Poset) -> bool:
    """Exact decision: order dimension ≤ 2.

    Dimension ≤ 2 iff the incomparability graph is a comparability graph.
    (Dimension ≤ 1 — a chain — is the special case with no incomparable
    pairs.)
    """
    edges = {frozenset(p) for p in poset.incomparable_pairs()}
    if not edges:
        return True
    return transitive_orientation(list(poset.elements), edges) is not None


def realizer2(poset: Poset) -> Optional[Tuple[List[Element], List[Element]]]:
    """Two linear extensions whose intersection is the poset, if dim ≤ 2."""
    edges = {frozenset(p) for p in poset.incomparable_pairs()}
    orientation: Dict[Tuple[Element, Element], bool] = {}
    if edges:
        oriented = transitive_orientation(list(poset.elements), edges)
        if oriented is None:
            return None
        orientation = oriented

    def topo(extra: Set[Tuple[Element, Element]]) -> List[Element]:
        order: List[Element] = []
        succ: Dict[Element, Set[Element]] = {v: set() for v in poset.elements}
        indeg: Dict[Element, int] = {v: 0 for v in poset.elements}
        rel = {(a, b) for a, b in extra}
        rel |= {
            (a, b)
            for a in poset.elements
            for b in poset.elements
            if a != b and poset.lt(a, b)
        }
        for a, b in rel:
            if b not in succ[a]:
                succ[a].add(b)
                indeg[b] += 1
        ready = sorted(
            (v for v in poset.elements if indeg[v] == 0), key=repr
        )
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in sorted(succ[v], key=repr):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort(key=repr)
        if len(order) != len(poset.elements):
            raise RuntimeError("orientation produced a cycle")  # pragma: no cover
        return order

    forward = set(orientation)
    backward = {(b, a) for a, b in orientation}
    l1 = topo(forward)
    l2 = topo(backward)
    return l1, l2


def two_element_vectors(
    poset: Poset,
) -> Optional[Dict[Element, Tuple[int, int]]]:
    """A 2-element integer-vector assignment realizing the poset, if any.

    The returned vectors are distinct, and for all distinct ``a, b``:
    ``a < b`` in the poset iff ``vec(a) < vec(b)`` under the standard
    vector-clock comparison.  ``None`` when the poset's dimension exceeds 2
    (Theorem 4.4 exhibits executions where this happens).
    """
    r = realizer2(poset)
    if r is None:
        return None
    l1, l2 = r
    pos1 = {x: i for i, x in enumerate(l1)}
    pos2 = {x: i for i, x in enumerate(l2)}
    return {x: (pos1[x], pos2[x]) for x in poset.elements}
