"""Crown-embedding search: dimension lower-bound certificates.

:mod:`repro.lowerbounds.posets` decides dimension ≤ 2 exactly, and
:mod:`repro.lowerbounds.realizers` gives heuristic *upper* bounds.  This
module closes the toolkit from below: an induced crown ``S⁰ₖ`` inside a
poset certifies dimension ≥ k (Dushnik–Miller).  :func:`find_crown` searches
for such an embedding by backtracking over candidate ``(aᵢ, bᵢ)`` pairs —
exponential in the worst case, intended for the small posets this
repository analyses (the Charron-Bost executions come with their crown
witness pre-identified; this search rediscovers crowns in arbitrary
executions, e.g. to explain *why* a realizer could not be shortened).

Note the limits: crowns certify ``k ≥ 3`` only (``S⁰₂`` has dimension 2),
and posets can have high dimension *without* containing a crown, so a
failed search proves nothing — it is a certificate generator, not a
decision procedure.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.lowerbounds.posets import Element, Poset


def is_crown_embedding(
    lt: Callable[[Element, Element], bool],
    a_side: Sequence[Element],
    b_side: Sequence[Element],
) -> bool:
    """Check that ``(a_side, b_side)`` induce ``S⁰ₖ`` under the strict order
    *lt* (:meth:`Poset.lt`, or an oracle's ``happened_before``): ``aᵢ ∥ bᵢ``,
    ``aⱼ < bᵢ`` for ``j ≠ i``, both sides antichains and no ``b`` below an
    ``a``.  Any deviation, extra order included, breaks the induced
    subposet."""
    k = len(a_side)
    if k != len(b_side) or k < 2:
        return False
    if len(set(a_side) | set(b_side)) != 2 * k:
        return False

    def comparable(x: Element, y: Element) -> bool:
        return lt(x, y) or lt(y, x)

    for i in range(k):
        for j in range(k):
            if i != j:
                if not lt(a_side[j], b_side[i]):
                    return False
                if comparable(a_side[i], a_side[j]):
                    return False
                if comparable(b_side[i], b_side[j]):
                    return False
            elif comparable(a_side[i], b_side[i]):
                return False
            if lt(b_side[i], a_side[j]):
                return False
    return True


def find_crown(
    poset: Poset, k: int, node_budget: int = 200_000
) -> Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...]]]:
    """An induced ``S⁰ₖ``, as ``(a_side, b_side)``, or ``None``.

    Backtracking: extend partial pair lists, pruning pairs inconsistent
    with the crown relations.  *node_budget* bounds the search tree;
    exhausting it raises ``RuntimeError`` (distinct from a completed search
    finding nothing).
    """
    if k < 2:
        raise ValueError("crowns need k >= 2")
    elements = list(poset.elements)
    n = len(elements)
    if n < 2 * k:
        return None

    # candidate pairs: incomparable (a, b) with a having enough upper covers
    pairs: List[Tuple[Element, Element]] = [
        (a, b)
        for a in elements
        for b in elements
        if a != b and not poset.comparable(a, b)
    ]
    nodes = [0]

    def compatible(
        a_side: List[Element], b_side: List[Element], a: Element, b: Element
    ) -> bool:
        for a2, b2 in zip(a_side, b_side):
            if a in (a2, b2) or b in (a2, b2):
                return False
            # cross relations with every existing pair
            if not poset.lt(a, b2) or not poset.lt(a2, b):
                return False
            if poset.comparable(a, a2) or poset.comparable(b, b2):
                return False
        return True

    def backtrack(
        a_side: List[Element], b_side: List[Element], start: int
    ) -> Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...]]]:
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise RuntimeError("crown search exceeded node budget")
        if len(a_side) == k:
            return tuple(a_side), tuple(b_side)
        for idx in range(start, len(pairs)):
            a, b = pairs[idx]
            if compatible(a_side, b_side, a, b):
                a_side.append(a)
                b_side.append(b)
                found = backtrack(a_side, b_side, idx + 1)
                if found is not None:
                    return found
                a_side.pop()
                b_side.pop()
        return None

    result = backtrack([], [], 0)
    if result is not None:
        assert is_crown_embedding(poset.lt, result[0], result[1])
    return result
