"""Concurrent-update (conflict) detection (paper Section 6).

Replicated-data systems must distinguish updates that supersede each other
(causally ordered) from true conflicts (concurrent updates to the same
object).  Any characterizing timestamp scheme answers this from timestamps
alone.  With inline timestamps, conflicts among *finalized* events are
decided immediately; undecided updates resolve as their timestamps
finalize — :func:`conflict_resolution_status` reports how much of the
conflict matrix is already decidable at a given point.

Two operating modes:

- **batch** (:func:`find_conflicts`, :func:`conflict_resolution_status`) —
  decide the whole conflict matrix over a completed execution;
- **online** (:class:`OnlineConcurrentUpdateDetector`) — stream updates
  against a live :class:`~repro.core.incremental.IncrementalHBOracle`
  while the execution runs.  Each update is compared only against earlier
  updates of the *same key* (O(writes-per-key) bit tests), and because
  causal pasts are append-monotone, every verdict is final the moment it is
  issued — no conflict is ever retracted or discovered late.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.applications.predicate import Comparator
from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import IncrementalHBOracle

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


def find_conflicts(
    precedes: Comparator, updates: UpdateMap
) -> Set[FrozenSet[EventId]]:
    """Unordered pairs of concurrent updates to the same key."""
    return _concurrent(precedes, _same_key_pairs(updates))


class OnlineConcurrentUpdateDetector:
    """Streaming conflict detector over a live incremental oracle.

    Call :meth:`record_update` as update events are appended to the oracle
    (e.g. from a workload hook of an ``online_oracle=True`` simulation).
    The verdict against every earlier same-key update is computed on the
    spot and is *final*: appending further events never changes the causal
    relation between two already-appended events.
    """

    def __init__(self, oracle: IncrementalHBOracle) -> None:
        self._oracle = oracle
        self._by_key: Dict[str, List[EventId]] = {}
        self._conflicts: Set[FrozenSet[EventId]] = set()
        self._pairs_checked = 0

    @property
    def conflicts(self) -> Set[FrozenSet[EventId]]:
        """Unordered concurrent same-key update pairs found so far."""
        return set(self._conflicts)

    @property
    def pairs_checked(self) -> int:
        """Same-key pairs decided so far (the detector's total work)."""
        return self._pairs_checked

    @property
    def n_updates(self) -> int:
        return sum(len(v) for v in self._by_key.values())

    def record_update(self, eid: EventId, key: str) -> List[EventId]:
        """Register *eid* as an update of *key*; return new conflict peers.

        *eid* must already be appended to the oracle.  The returned list
        holds the earlier updates of *key* concurrent with *eid* (empty
        when the new update causally supersedes — or is superseded by —
        every prior one), in deterministic (process, index) order.
        """
        if eid not in self._oracle:
            raise ValueError(f"{eid} has not been appended to the oracle")
        hb = self._oracle.happened_before
        prior = self._by_key.setdefault(key, [])
        fresh: List[EventId] = []
        for other in prior:
            self._pairs_checked += 1
            if other != eid and not hb(other, eid) and not hb(eid, other):
                self._conflicts.add(frozenset((other, eid)))
                fresh.append(other)
        prior.append(eid)
        fresh.sort()
        return fresh

    def updates(self) -> UpdateMap:
        """The update map accumulated so far (for batch cross-checks)."""
        return {
            eid: key
            for key, eids in self._by_key.items()
            for eid in eids
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
    oracle: Optional[HappenedBeforeOracle] = None,
    finalized: Optional[Set[EventId]] = None,
) -> ConflictReport:
    """Compare scheme-detected conflicts with ground truth.

    Only update pairs with *both* timestamps finalized are decided; the
    rest are counted as ``undecided_pairs`` (they resolve later — the
    inline trade-off).  For a fully finalized characterizing scheme the
    report is exact with zero undecided pairs.
    """
    if oracle is None:
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
