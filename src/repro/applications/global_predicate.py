"""Possibly/Definitely detection for general global predicates.

Weak conjunctive predicates (:mod:`repro.applications.predicate`) cover the
common case; for *arbitrary* global predicates the classic Cooper–Marzullo
construction explores the lattice of consistent cuts:

- ``possibly(Φ)`` — some consistent cut satisfies Φ (the computation could
  have passed through a Φ-state);
- ``definitely(Φ)`` — every path from the empty cut to the full cut passes
  through a Φ-cut (the computation must have passed through one).

Both are decided exactly by a level-order walk over consistent cuts, using
the ground-truth vector clocks for O(n) successor checks.  The lattice can
be exponential in general — that is inherent to the problem — so these
detectors are meant for the modest executions a debugger examines.

Every walker takes either oracle class as it is (they read what
:mod:`repro.core.cuts` reads): the batch
:class:`~repro.core.happened_before.HappenedBeforeOracle` over a completed
execution, or a live :class:`~repro.core.incremental.IncrementalHBOracle`
mid-run — the lattice is then explored up to the events appended so far,
and a ``possibly`` witness found online is final (appends only grow the
lattice upward).

Inline-timestamp integration (paper Section 6): pass ``within`` to restrict
the walk to the sublattice of cuts inside the currently *finalized*
consistent cut (:func:`~repro.core.cuts.max_consistent_cut_within`).  A
``possibly`` witness found there is final (the sublattice only grows); a
negative answer may flip as more timestamps finalize — exactly the paper's
"the cut in which predicates can be detected will grow" behaviour.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Set

from repro.core.cuts import Cut, empty_cut, full_cut, is_consistent
from repro.core.events import EventId
from repro.core.incremental import AnyOracle

#: a global predicate over consistent cuts (entry p = events taken at p)
GlobalPredicate = Callable[[Cut], bool]


def _limit(oracle: AnyOracle, within: Optional[Cut]) -> Cut:
    """The top of the walked lattice: *within*, which must be a consistent
    cut (an inconsistent one is unreachable, and every ``definitely`` would
    hold vacuously), or every event the oracle knows."""
    if within is None:
        return full_cut(oracle)
    if not is_consistent(oracle, within):  # ValueError on length / range
        raise ValueError(f"within={within} is not a consistent cut")
    return within


def _successors(
    oracle: AnyOracle, cut: Cut, limit: Cut
) -> Iterator[Cut]:
    """Consistent cuts reachable by admitting one more event, within *limit*.

    Event identity is positional — the next event at process ``p`` beyond
    ``cut[p]`` is ``EventId(p, cut[p] + 1)`` by the 1-based consecutive
    indexing — so the walk needs only vector clocks, which both oracle
    flavors provide; no :class:`Execution` object is required and the
    lattice can be explored against a still-running oracle.
    """
    n = len(cut)
    for p in range(n):
        if cut[p] >= limit[p]:
            continue
        vc = oracle.vector_clock(EventId(p, cut[p] + 1))
        if all(vc[q] <= cut[q] for q in range(n) if q != p):
            yield cut[:p] + (cut[p] + 1,) + cut[p + 1 :]


def enumerate_consistent_cuts(
    oracle: AnyOracle,
    within: Optional[Cut] = None,
) -> Iterator[Cut]:
    """All consistent cuts (inside *within*), in level order from empty."""
    return _walk(oracle, _limit(oracle, within))  # validates before iterating


def _walk(oracle: AnyOracle, limit: Cut) -> Iterator[Cut]:
    level: Set[Cut] = {empty_cut(len(limit))}
    while level:
        nxt: Set[Cut] = set()
        for cut in sorted(level):
            yield cut
            nxt.update(_successors(oracle, cut, limit))
        level = nxt


def possibly(
    oracle: AnyOracle,
    predicate: GlobalPredicate,
    within: Optional[Cut] = None,
) -> Optional[Cut]:
    """A consistent cut satisfying *predicate*, or ``None``.

    Walks the lattice level by level and stops at the first witness, so the
    returned cut has minimum total event count among witnesses.
    """
    for cut in enumerate_consistent_cuts(oracle, within):
        if predicate(cut):
            return cut
    return None


def definitely(
    oracle: AnyOracle,
    predicate: GlobalPredicate,
    within: Optional[Cut] = None,
) -> bool:
    """Whether every path from the empty to the limit cut hits a Φ-cut.

    Standard construction: restrict the lattice to ¬Φ cuts; Φ holds
    *definitely* iff the limit cut is unreachable through ¬Φ cuts alone
    (including the endpoints — a Φ-endpoint trivially intercepts paths).
    """
    limit = _limit(oracle, within)
    start = empty_cut(len(limit))
    if predicate(start) or predicate(limit):
        return True
    if start == limit:
        return False  # single-cut lattice that fails the predicate
    frontier: Set[Cut] = {start}
    seen: Set[Cut] = {start}
    while frontier:
        nxt: Set[Cut] = set()
        for cut in frontier:
            for succ in _successors(oracle, cut, limit):
                if succ in seen or predicate(succ):
                    continue
                if succ == limit:
                    return False
                seen.add(succ)
                nxt.add(succ)
        frontier = nxt
    # every ¬Φ path dead-ends before the limit cut — note a dead end is
    # impossible in a full lattice walk unless a Φ-cut blocked it
    return True
