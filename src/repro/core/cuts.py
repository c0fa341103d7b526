"""Consistent cuts of an execution.

A *cut* assigns to every process a prefix of its events; it is *consistent*
when it is causally closed — no event in the cut causally depends on an event
outside it.  Consistent cuts are the backbone of the paper's application
story (Section 6): with inline timestamps, applications operate on the
largest consistent cut that contains only events whose timestamps have been
*finalized*, and that cut grows toward the full execution as timestamps
become permanent.

Cuts are represented as tuples of per-process event counts: ``cut[i] == k``
means the first ``k`` events of process ``i`` are inside the cut.  That is
the shape of a vector clock, and every function here answers from the
oracle's clock table alone: event identity is positional (the ``k``-th event
of process ``p`` is ``EventId(p, k)``), and a cut is consistent iff no
frontier event's clock exceeds it::

    for all p with cut[p] > 0, all q:   vc(EventId(p, cut[p]))[q] <= cut[q]

So each function takes a :class:`HappenedBeforeOracle` or a still-streaming
:class:`IncrementalHBOracle` as it is — it reads ``n_processes``,
``event_count(p)`` and ``vector_clock(eid)``, never an execution or a bit
row.  On a streaming oracle "every event" means every event appended so
far; answers about appended events are final.
"""

from __future__ import annotations

from operator import gt
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.events import EventId
from repro.core.incremental import AnyOracle

#: A cut: entry ``i`` is the number of events of process ``i`` inside it.
Cut = Tuple[int, ...]


def empty_cut(n_processes: int) -> Cut:
    """The cut containing no events."""
    return (0,) * n_processes


def full_cut(oracle: AnyOracle) -> Cut:
    """The cut containing every event the oracle knows."""
    return tuple(oracle.event_count(p) for p in range(oracle.n_processes))


def _check_range(oracle: AnyOracle, cut: Sequence[int]) -> None:
    if len(cut) != oracle.n_processes:
        raise ValueError("cut length must equal the number of processes")
    for p, k in enumerate(cut):
        if k < 0 or k > oracle.event_count(p):
            raise ValueError(f"cut[{p}]={k} out of range for process {p}")


def events_in_cut(oracle: AnyOracle, cut: Cut) -> Set[EventId]:
    """The set of event ids inside *cut*."""
    _check_range(oracle, cut)
    return {EventId(p, k) for p, c in enumerate(cut) for k in range(1, c + 1)}


def _sees_beyond(
    oracle: AnyOracle, p: int, k: int, cut: Sequence[int]
) -> bool:
    """Whether the *k*-th event of process *p* depends on an event outside
    *cut*: its clock exceeds the cut somewhere."""
    return any(map(gt, oracle.vector_clock(EventId(p, k)), cut))


def first_inconsistent(
    oracle: AnyOracle, cut: Sequence[int]
) -> Optional[int]:
    """The first process whose frontier event sees beyond *cut*, or ``None``
    when *cut* is consistent.  Entries must be in range
    (:func:`is_consistent` checks them)."""
    for p, k in enumerate(cut):
        if k and _sees_beyond(oracle, p, k, cut):
            return p
    return None


def is_consistent(oracle: AnyOracle, cut: Cut) -> bool:
    """Whether *cut* is causally closed.

    ``ValueError`` for a cut of the wrong length or with an entry outside
    its process's event count."""
    _check_range(oracle, cut)
    return first_inconsistent(oracle, cut) is None


def join(a: Cut, b: Cut) -> Cut:
    """Pointwise max.  The join of two consistent cuts is consistent."""
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def meet(a: Cut, b: Cut) -> Cut:
    """Pointwise min.  The meet of two consistent cuts is consistent."""
    return tuple(min(x, y) for x, y in zip(a, b, strict=True))


def allowed_prefixes(
    oracle: AnyOracle, allowed: Callable[[EventId], bool]
) -> List[int]:
    """Per process, the length of its longest prefix of *allowed* events."""
    out = []
    for p in range(oracle.n_processes):
        k, count = 0, oracle.event_count(p)
        while k < count and allowed(EventId(p, k + 1)):
            k += 1
        out.append(k)
    return out


def max_consistent_cut_within(
    oracle: AnyOracle,
    allowed: Callable[[EventId], bool],
) -> Cut:
    """The largest consistent cut whose events all satisfy *allowed*.

    This is the paper's Section-6 construction: "consider a cut of the system
    that removes all events e such that timestamp_e = ⊥; when we remove event
    e, we must also remove every event f with e -> f".  Concretely, start
    from the longest per-process prefix of allowed events and shrink any
    process whose frontier event's clock exceeds the cut, until the entrywise
    fix-point is reached.

    The result is the unique maximum such cut (the set of consistent cuts
    within an allowed downward-closed region forms a lattice).
    """
    cut = allowed_prefixes(oracle, allowed)
    shrunk = True
    while shrunk:
        shrunk = False
        for p in range(len(cut)):
            while cut[p] and _sees_beyond(oracle, p, cut[p], cut):
                cut[p] -= 1
                shrunk = True
    return tuple(cut)


def cut_from_events(oracle: AnyOracle, events: Iterable[EventId]) -> Cut:
    """The smallest consistent cut containing all of *events*.

    The entrywise max of their vector clocks (the join of their causal-past
    closures) — as events, their downward closure."""
    cut = empty_cut(oracle.n_processes)
    for eid in events:
        cut = tuple(map(max, cut, oracle.vector_clock(eid)))
    return cut


def frontier(oracle: AnyOracle, cut: Cut) -> Sequence[EventId]:
    """The last event of each nonempty per-process prefix of *cut*."""
    _check_range(oracle, cut)
    return [EventId(p, k) for p, k in enumerate(cut) if k]


def cut_size(cut: Cut) -> int:
    """Total number of events inside *cut*."""
    return sum(cut)
