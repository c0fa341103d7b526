"""Weak conjunctive predicate detection (paper Section 6).

Detects ``possibly(l_1 ∧ l_2 ∧ … )`` where each ``l_i`` is a local predicate
of one process: is there a consistent global state in which every
participating process simultaneously satisfies its local predicate?  By the
classic characterization (Garg & Waldecker), this holds iff one can pick one
satisfying event per participating process such that the picks are pairwise
concurrent.

The detector is parameterized by a *causality comparator*, so the same
algorithm runs against

- the ground-truth oracle (what an online vector clock gives you), and
- a (possibly partial) inline timestamp assignment: only events whose
  timestamps are finalized participate — the paper's Section-6 recipe of
  working inside the finalized consistent cut.  A predicate that is
  detectable in the full execution becomes detectable with inline
  timestamps as soon as the relevant events finalize; the benchmarks
  measure that detection lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId
from repro.core.incremental import IncrementalHBOracle

#: strict happened-before decision on two events
Comparator = Callable[[EventId, EventId], bool]

#: per-process 1-based indices of events after which the local predicate holds
PredicateMarks = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a conjunctive-predicate detection."""

    found: bool
    #: one satisfying, pairwise-concurrent event per process (when found)
    witness: Optional[Dict[int, EventId]]
    #: number of candidate-advancement steps the algorithm performed
    steps: int


def _advance(
    queues: Mapping[int, Sequence[EventId]],
    heads: Dict[int, int],
    precedes: Comparator,
    steps: int = 0,
) -> DetectionResult:
    """Candidate advancement, shared by the batch and the online detector.

    ``queues[p][heads[p]]`` is process ``p``'s candidate (every head must be
    in range).  Repeatedly advances — in *heads*, in place — a candidate
    that happened-before another one: such an event can never be part of a
    pairwise-concurrent witness with the others, whose candidates only move
    forward.  Stops at pairwise-concurrent candidates (found) or an
    exhausted queue (not found); *steps* is the count to continue from.
    """
    procs = list(queues)
    while True:
        for p, q in combinations(procs, 2):
            e, f = queues[p][heads[p]], queues[q][heads[q]]
            if precedes(e, f):
                advanced = p
            elif precedes(f, e):
                advanced = q
            else:
                continue
            break
        else:
            witness = {p: queues[p][heads[p]] for p in procs}
            return DetectionResult(found=True, witness=witness, steps=steps)
        steps += 1
        heads[advanced] += 1
        if heads[advanced] >= len(queues[advanced]):
            return DetectionResult(found=False, witness=None, steps=steps)


def detect_conjunctive(
    precedes: Comparator,
    marks: PredicateMarks,
) -> DetectionResult:
    """Run the weak-conjunctive-predicate algorithm.

    *precedes* is the causality comparator: ``oracle.happened_before`` of
    either oracle class for ground truth (what online vector clocks
    provide), or a scheme's ``assignment.precedes``.  *marks* lists, per
    participating process, the local event indices at which its predicate
    holds (in increasing order).  Processes without marks make detection
    trivially impossible; processes absent from *marks* do not participate.

    The algorithm keeps one candidate per process and advances them
    (:func:`_advance`) until they are pairwise concurrent (found) or a
    queue is exhausted (not found).
    """
    queues: Dict[int, List[EventId]] = {}
    for proc, indices in marks.items():
        seq = [EventId(proc, i) for i in indices]
        if any(seq[i].index >= seq[i + 1].index for i in range(len(seq) - 1)):
            raise ValueError(f"marks for process {proc} must be increasing")
        if not seq:
            return DetectionResult(found=False, witness=None, steps=0)
        queues[proc] = seq
    return _advance(queues, {p: 0 for p in queues}, precedes)


class OnlineConjunctiveDetector:
    """Weak-conjunctive-predicate detection over a *live* streaming oracle.

    The batch entry point :func:`detect_conjunctive` restarts its
    candidate-advancement from scratch on every call; this detector keeps
    the per-process candidate heads across polls.  That is sound because
    advancement is monotone (Garg & Waldecker): an event discarded once —
    it happened-before some other process's candidate, which only moves
    forward — can never be part of a pairwise-concurrent witness later, and
    appends never change the causal relation between existing events.  So
    each :meth:`check` costs O(new marks + advancement steps), amortized
    O(Δ) across the run, instead of re-deciding the whole history.
    """

    def __init__(
        self,
        oracle: IncrementalHBOracle,
        processes: Sequence[int],
    ) -> None:
        if not processes:
            raise ValueError("need at least one participating process")
        self._oracle = oracle
        self._marks: Dict[int, List[EventId]] = {p: [] for p in processes}
        self._heads: Dict[int, int] = {p: 0 for p in processes}
        self._steps = 0

    @property
    def steps(self) -> int:
        """Candidate-advancement steps performed across all polls."""
        return self._steps

    def mark(self, eid: EventId) -> None:
        """Record that *eid*'s process satisfies its local predicate there."""
        marks = self._marks.get(eid.proc)
        if marks is None:
            raise ValueError(f"process {eid.proc} does not participate")
        if marks and marks[-1].index >= eid.index:
            raise ValueError(f"marks at p{eid.proc} must be increasing")
        if eid not in self._oracle:
            raise ValueError(f"{eid} has not been appended to the oracle")
        marks.append(eid)

    def check(self) -> DetectionResult:
        """Poll for a pairwise-concurrent witness among current marks.

        ``found=False`` means *not detectable yet* — more marks (or more
        appends) may flip it, exactly the online-detection trade-off the
        paper's Section 6 describes.  A ``found=True`` answer is final.
        """
        marks, heads = self._marks, self._heads
        if any(heads[p] >= len(marks[p]) for p in marks):
            return DetectionResult(found=False, witness=None, steps=self._steps)
        result = _advance(
            marks, heads, self._oracle.happened_before, self._steps
        )
        self._steps = result.steps
        return result


def assignment_comparator(assignment: TimestampAssignment) -> Comparator:
    """Comparator using a scheme's own timestamps (must cover the events)."""
    return assignment.precedes


def detect_with_inline(
    assignment: TimestampAssignment,
    marks: PredicateMarks,
    finalized: Optional[Set[EventId]] = None,
) -> DetectionResult:
    """Detection restricted to finalized events (the Section-6 recipe).

    *finalized* defaults to the events finalized during the run; marks whose
    events are not finalized are dropped — they may become detectable later,
    exactly the inline trade-off.
    """
    if finalized is None:
        finalized = set(assignment.finalized_during_run)
    pruned: Dict[int, List[int]] = {}
    for proc, indices in marks.items():
        kept = [i for i in indices if EventId(proc, i) in finalized]
        pruned[proc] = kept
        if not kept:
            return DetectionResult(found=False, witness=None, steps=0)
    return detect_conjunctive(assignment.precedes, pruned)
