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

    The algorithm keeps one candidate per process and repeatedly advances
    a candidate that happened-before another one: such an event can never
    be part of a pairwise-concurrent witness with the others, whose
    candidates only move forward.  It stops at pairwise-concurrent
    candidates (found) or an exhausted queue (not found).
    """
    queues: Dict[int, List[EventId]] = {}
    for proc, indices in marks.items():
        seq = [EventId(proc, i) for i in indices]
        if any(seq[i].index >= seq[i + 1].index for i in range(len(seq) - 1)):
            raise ValueError(f"marks for process {proc} must be increasing")
        if not seq:
            return DetectionResult(found=False, witness=None, steps=0)
        queues[proc] = seq
    procs = list(queues)
    heads = {p: 0 for p in procs}
    steps = 0
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
