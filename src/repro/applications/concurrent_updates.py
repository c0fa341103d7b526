"""Concurrent-update (conflict) detection (paper Section 6).

Replicated-data systems must distinguish updates that supersede each other
(causally ordered) from true conflicts (concurrent updates to the same
object).  Any characterizing timestamp scheme answers this from timestamps
alone.  With inline timestamps, conflicts among *finalized* events are
decided immediately; undecided updates resolve as their timestamps
finalize — :func:`conflict_resolution_status` reports how much of the
conflict matrix is already decidable at a given point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.applications.predicate import Comparator
from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId
from repro.core.happened_before import HappenedBeforeOracle

#: update label: which object/key an event updates
UpdateMap = Mapping[EventId, str]


#: two updates to one key
UpdatePair = Tuple[EventId, EventId]


def _same_key_pairs(updates: UpdateMap) -> Iterable[UpdatePair]:
    """Every unordered pair of updates to one key, in (process, index) order."""
    by_key: Dict[str, List[EventId]] = {}
    for eid, key in updates.items():
        by_key.setdefault(key, []).append(eid)
    for eids in by_key.values():
        yield from combinations(sorted(eids), 2)


def _concurrent(
    precedes: Comparator, pairs: Iterable[UpdatePair]
) -> Set[FrozenSet[EventId]]:
    return {
        frozenset((e, f))
        for e, f in pairs
        if not precedes(e, f) and not precedes(f, e)
    }


@dataclass(frozen=True)
class ConflictReport:
    """Conflicts found with a scheme vs ground truth."""

    true_conflicts: FrozenSet[FrozenSet[EventId]]
    detected_conflicts: FrozenSet[FrozenSet[EventId]]
    undecided_pairs: int

    @property
    def missed(self) -> FrozenSet[FrozenSet[EventId]]:
        return self.true_conflicts - self.detected_conflicts

    @property
    def spurious(self) -> FrozenSet[FrozenSet[EventId]]:
        return self.detected_conflicts - self.true_conflicts

    @property
    def exact(self) -> bool:
        return not self.missed and not self.spurious


def conflict_resolution_status(
    assignment: TimestampAssignment,
    updates: UpdateMap,
    finalized: Optional[Set[EventId]] = None,
) -> ConflictReport:
    """Compare scheme-detected conflicts with ground truth.

    Only update pairs with *both* timestamps finalized are decided; the
    rest are counted as ``undecided_pairs`` (they resolve later — the
    inline trade-off).  For a fully finalized characterizing scheme the
    report is exact with zero undecided pairs.
    """
    oracle = HappenedBeforeOracle(assignment.execution)
    if finalized is None:
        finalized = {eid for eid, _ in assignment.items()}

    pairs = list(_same_key_pairs(updates))
    decided = [(e, f) for e, f in pairs if e in finalized and f in finalized]
    return ConflictReport(
        true_conflicts=frozenset(_concurrent(oracle.happened_before, pairs)),
        detected_conflicts=frozenset(
            _concurrent(assignment.precedes, decided)
        ),
        undecided_pairs=len(pairs) - len(decided),
    )
