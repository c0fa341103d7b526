"""Executable adversaries for the star-graph lower bounds (Lemmas 2.1, 2.2).

Both adversaries attack an arbitrary *online* vector scheme (a
:class:`~repro.clocks.vector.VectorClock` or one of the candidates in
:mod:`repro.lowerbounds.online`) on the star with central process ``p_0``
and radial processes ``p_1 .. p_{n-1}``:

**Lemma 2.1 (real-valued, length ≤ n-2).**  Each radial process performs a
single send to the centre; these ``n-1`` events are pairwise concurrent and
are timestamped immediately (the scheme is online).  The adversary reads
those timestamps, builds the dominating set ``S`` (one radial maximizer per
coordinate, so ``|S| ≤ s ≤ n-2``) and picks a radial ``p_k ∉ S``.  It then
delivers every message except ``p_k``'s; by construction the centre's
``(n-2)``-th event dominates the coordinatewise max ``E`` of all send
timestamps, while ``p_k``'s send timestamp is ≤ ``E`` — so the scheme must
order the concurrent pair ``(e_1^k, e_{n-2}^0)`` (or assign duplicates, or
already violate elsewhere).  Either way verification produces a concrete
violation.

**Lemma 2.2 (integer-valued, length ≤ n-1).**  Same skeleton, but the
centre first performs ``P = (M+2)·n`` local computation events, where ``M``
is the largest element among the radial send timestamps.  With non-negative
integer entries, the pigeonhole forces some coordinate of the centre's
``P``-th event above ``M``, which puts ``p_0`` into ``S`` and leaves a
radial ``p_k ∉ S`` even for ``s = n-1``.

Both functions return an :class:`AdversaryResult` carrying the refuting
execution and the violation found; ``violation is None`` means the adversary
failed — which is exactly what happens (and is asserted in the tests) for
the full length-``n`` vector clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.clocks.vector import VectorClock
from repro.core.events import EventId
from repro.core.execution import Execution, ExecutionBuilder
from repro.lowerbounds.verify import (
    VectorAssignmentReport,
    Violation,
    check_vector_assignment,
)
from repro.topology import generators

SchemeFactory = Callable[[int], VectorClock]


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of one adversarial run."""

    lemma: str
    n_processes: int
    vector_length: int
    execution: Execution
    vectors: Dict[EventId, Tuple[float, ...]]
    #: the concurrent pair the proof predicts the scheme will mis-order
    predicted_pair: Optional[Tuple[EventId, EventId]]
    #: a concrete violation, or None if the scheme survived
    violation: Optional[Violation]
    report: VectorAssignmentReport

    @property
    def refuted(self) -> bool:
        return self.violation is not None


class _SchemeDriver:
    """Feeds builder events to a clock's record steps and keeps each
    event's vector the moment the clock stamps it."""

    def __init__(self, clock: VectorClock, builder: ExecutionBuilder):
        self.clock = clock
        self.builder = builder
        self.vectors: Dict[EventId, Tuple[float, ...]] = {}
        self._payloads: Dict[int, object] = {}

    def _stamped(self, eid: EventId) -> EventId:
        self.vectors[eid] = self.clock.timestamp(eid).vector
        return eid

    def local(self, p: int) -> EventId:
        eid = self.builder.local(p).eid
        self.clock.record_local(p, eid.index)
        return self._stamped(eid)

    def send(self, src: int, dst: int) -> Tuple[EventId, int]:
        msg_id = self.builder.send(src, dst)
        eid = self.builder.last_event(src).eid
        self._payloads[msg_id] = self.clock.record_send(src, eid.index, dst)
        return self._stamped(eid), msg_id

    def receive(self, p: int, msg_id: int) -> EventId:
        ev = self.builder.receive(p, msg_id)
        self.clock.record_receive(
            p, ev.eid.index, ev.peer, self._payloads.pop(msg_id)
        )
        return self._stamped(ev.eid)


def _pick_outside_s(
    vectors: Dict[EventId, Tuple[float, ...]],
    candidates: List[EventId],
) -> Optional[EventId]:
    """Pick an event whose process is outside the dominating set ``S``.

    ``S`` takes, per coordinate, one maximizing candidate — exactly the
    proofs' construction.  Returns ``None`` when every candidate landed in
    ``S`` (cannot happen while there are more candidates than coordinates).
    """
    s_events: set = set()
    for l in range(len(vectors[candidates[0]])):
        best = max(candidates, key=lambda e: vectors[e][l])
        s_events.add(best)
    for e in candidates:
        if e not in s_events:
            return e
    return None


def star_adversary_real(
    scheme_factory: SchemeFactory, n: int
) -> AdversaryResult:
    """Run the Lemma 2.1 adversary against ``scheme_factory(n)``.

    Effective against real- or integer-valued schemes of length ≤ ``n-2``;
    longer schemes make the adversary inapplicable (it still runs and
    reports whatever violations exhaustive verification finds).
    """
    if n < 3:
        raise ValueError("Lemma 2.1 construction needs n >= 3")
    graph = generators.star(n)
    builder = ExecutionBuilder(n, graph=graph)
    driver = _SchemeDriver(scheme_factory(n), builder)

    # stage 1: concurrent sends at every radial process
    sends: List[Tuple[EventId, int]] = [
        driver.send(i, 0) for i in range(1, n)
    ]
    send_eids = [eid for eid, _ in sends]

    # adversary reads the (already permanent) timestamps and picks p_k
    victim = _pick_outside_s(driver.vectors, send_eids)
    predicted_pair: Optional[Tuple[EventId, EventId]] = None

    # stage 2: deliver everything except the victim's message; victim last
    last_nonvictim_recv: Optional[EventId] = None
    victim_msg: Optional[int] = None
    for eid, msg_id in sends:
        if victim is not None and eid == victim:
            victim_msg = msg_id
            continue
        last_nonvictim_recv = driver.receive(0, msg_id)
    if victim_msg is not None:
        driver.receive(0, victim_msg)
    if victim is not None and last_nonvictim_recv is not None:
        predicted_pair = (victim, last_nonvictim_recv)

    execution = builder.freeze()
    report = check_vector_assignment(execution, driver.vectors)
    violation = _select_violation(report, predicted_pair)
    return AdversaryResult(
        lemma="2.1",
        n_processes=n,
        vector_length=report.vector_length,
        execution=execution,
        vectors=driver.vectors,
        predicted_pair=predicted_pair,
        violation=violation,
        report=report,
    )


def star_adversary_integer(
    scheme_factory: SchemeFactory, n: int
) -> AdversaryResult:
    """Run the Lemma 2.2 adversary against ``scheme_factory(n)``.

    Effective against non-negative-integer-valued schemes of length ≤
    ``n-1``.  The centre's ``P = (M+2)·n`` prefix of local events forces one
    of its coordinates above the radial maximum ``M``.
    """
    if n < 2:
        raise ValueError("Lemma 2.2 construction needs n >= 2")
    graph = generators.star(n)
    builder = ExecutionBuilder(n, graph=graph)
    driver = _SchemeDriver(scheme_factory(n), builder)

    # stage 1: concurrent sends at every radial process
    sends: List[Tuple[EventId, int]] = [
        driver.send(i, 0) for i in range(1, n)
    ]
    send_eids = [eid for eid, _ in sends]
    if not all(
        isinstance(x, int) for e in send_eids for x in driver.vectors[e]
    ):
        raise ValueError("Lemma 2.2 applies to integer-valued schemes")
    m_value = max(
        (max(driver.vectors[e]) for e in send_eids), default=0
    )
    p_events = int((m_value + 2) * n)

    # stage 2: P computation events at the centre (timestamped online,
    # before the centre has heard anything)
    centre_last: Optional[EventId] = None
    for _ in range(p_events):
        centre_last = driver.local(0)
    assert centre_last is not None

    # W = {e_P^0} ∪ radial sends; pick a radial p_k outside S
    w = [centre_last] + send_eids
    victim = _pick_outside_s(driver.vectors, w)
    if victim == centre_last:
        victim = None  # the proof needs a radial victim

    predicted_pair: Optional[Tuple[EventId, EventId]] = None
    last_nonvictim_recv: Optional[EventId] = None
    victim_msg: Optional[int] = None
    for eid, msg_id in sends:
        if victim is not None and eid == victim:
            victim_msg = msg_id
            continue
        last_nonvictim_recv = driver.receive(0, msg_id)
    if victim_msg is not None:
        driver.receive(0, victim_msg)
    if victim is not None and last_nonvictim_recv is not None:
        predicted_pair = (victim, last_nonvictim_recv)

    execution = builder.freeze()
    report = check_vector_assignment(execution, driver.vectors)
    violation = _select_violation(report, predicted_pair)
    return AdversaryResult(
        lemma="2.2",
        n_processes=n,
        vector_length=report.vector_length,
        execution=execution,
        vectors=driver.vectors,
        predicted_pair=predicted_pair,
        violation=violation,
        report=report,
    )


def _select_violation(
    report: VectorAssignmentReport,
    predicted_pair: Optional[Tuple[EventId, EventId]],
) -> Optional[Violation]:
    """Prefer the violation on the proof's predicted pair, else any."""
    if predicted_pair is not None:
        e, f = predicted_pair
        for v in report.violations:
            if {v.e, v.f} == {e, f}:
                return v
    return report.violations[0] if report.violations else None
