"""Verification of online vector-timestamp assignments against causality.

An online scheme is *valid* for an execution when (a) distinct events get
distinct vectors and (b) for all events, ``e -> f`` iff
``vec(e) < vec(f)`` under the standard vector-clock comparison.  The lower
bounds of Section 2 say short schemes cannot be valid on all executions;
the adversaries in :mod:`repro.lowerbounds.star_adversary` and
:mod:`repro.lowerbounds.flooding` construct the refuting execution, and this
module provides the checker that extracts a concrete violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.clocks.replay import decode_mismatches
from repro.clocks.vector import VectorTimestamp
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle


class ViolationKind(enum.Enum):
    """How an assignment can fail the Section-2 validity requirement."""

    #: concurrent events whose vectors are ordered
    FALSE_POSITIVE = "false_positive"
    #: causally ordered events whose vectors are not
    FALSE_NEGATIVE = "false_negative"
    #: distinct events sharing a vector
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class Violation:
    """A concrete counterexample pair with its vectors."""

    kind: ViolationKind
    e: EventId
    f: EventId
    vec_e: Tuple[float, ...]
    vec_f: Tuple[float, ...]

    def describe(self) -> str:
        return (
            f"{self.kind.value}: {self.e} (vec {self.vec_e}) vs "
            f"{self.f} (vec {self.vec_f})"
        )


@dataclass(frozen=True)
class VectorAssignmentReport:
    """Full validity report for one assignment over one execution."""

    n_events: int
    vector_length: int
    violations: Tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def first(self, kind: Optional[ViolationKind] = None) -> Optional[Violation]:
        for v in self.violations:
            if kind is None or v.kind is kind:
                return v
        return None


def check_vector_assignment(
    execution: Execution,
    vectors: Dict[EventId, Tuple[float, ...]],
) -> VectorAssignmentReport:
    """Exhaustively verify an online vector assignment.

    *vectors* must cover every event of the execution.  Their order is
    decoded against happened-before by
    :func:`~repro.clocks.replay.decode_mismatches`, as
    :meth:`~repro.clocks.replay.TimestampAssignment.validate` does for
    every scheme; every pair of equal vectors is a duplicate instead, which
    replaces the pair's direction checks.  Violations come in the pairwise
    reference order: pair-major over ``all_events()`` positions, a pair's
    duplicate first, then direction min->max before max->min.
    """
    oracle = HappenedBeforeOracle(execution)
    ids = oracle.event_order
    missing = [e for e in ids if e not in vectors]
    if missing:
        raise ValueError(f"assignment missing vectors for {missing[:3]}...")
    lengths = {len(vectors[e]) for e in ids}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent vector lengths: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0

    vecs = [tuple(vectors[e]) for e in ids]
    _ordered, neg_i, neg_j, pos_i, pos_j = decode_mismatches(
        [VectorTimestamp(v) for v in vecs], oracle
    )
    groups: Dict[Tuple[float, ...], List[int]] = {}
    for i, v in enumerate(vecs):
        groups.setdefault(v, []).append(i)
    keyed: List[Tuple[Tuple[int, int, int], Violation]] = [
        ((i, j, -1), Violation(ViolationKind.DUPLICATE, ids[i], ids[j], v, v))
        for v, idxs in groups.items()
        for a, i in enumerate(idxs)
        for j in idxs[a + 1 :]
    ]
    for kind, cells in (
        (ViolationKind.FALSE_NEGATIVE, zip(neg_i, neg_j)),
        (ViolationKind.FALSE_POSITIVE, zip(pos_i, pos_j)),
    ):
        for i, j in cells:
            if vecs[i] != vecs[j]:  # an equal pair is a duplicate
                keyed.append(
                    (
                        (min(i, j), max(i, j), 0 if i < j else 1),
                        Violation(kind, ids[i], ids[j], vecs[i], vecs[j]),
                    )
                )
    keyed.sort(key=itemgetter(0))
    return VectorAssignmentReport(
        len(ids), length, tuple(v for _key, v in keyed)
    )
