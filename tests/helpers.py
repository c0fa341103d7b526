"""Cross-cutting test helpers: declarative timestamp definitions, an
independent causal-past reference, the three oracles every cut query
must answer alike on, and the crown poset the dimension tests start from.

The paper defines the star and cover timestamps *declaratively* (Sections
3.1 and 4) and then gives operational rules (Figure 1).  These helpers
compute the declarative values by brute force from the happened-before
oracle, so tests can assert the operational algorithms produce exactly the
values the definitions demand.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.clocks.base import INFINITY
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.core.random_executions import execution_from_ops, random_ops
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import IncrementalHBOracle
from repro.lowerbounds.posets import Poset
from repro.topology.graph import CommunicationGraph

Post = Union[int, float]


def fifo_execution(
    graph: CommunicationGraph, rng, steps: int, deliver_all: bool = False
) -> Execution:
    """A random execution whose channels deliver in FIFO order, which the
    schemes that assume FIFO channels need (see ``random_ops``)."""
    ops = random_ops(graph, rng, steps=steps, deliver_all=deliver_all, fifo=True)
    return execution_from_ops(graph, ops)


def declarative_star_values(
    execution: Execution,
    oracle: HappenedBeforeOracle,
    center: int,
) -> Dict[EventId, Tuple[int, int, Optional[Post]]]:
    """Per event: (ctr, pre, post) straight from the Section-3 definitions.

    ``post`` is ``None`` for events at the centre.
    """
    out: Dict[EventId, Tuple[int, int, Optional[Post]]] = {}
    centre_events = list(execution.events_at(center))
    for ev in execution.all_events():
        e = ev.eid
        ctr = e.index
        pre = max(
            (f.index for f in centre_events
             if f.eid == e or oracle.happened_before(f.eid, e)),
            default=0,
        )
        if e.proc == center:
            out[e] = (ctr, pre, None)
        else:
            post: Post = min(
                (
                    f.index
                    for f in centre_events
                    if oracle.happened_before(e, f.eid)
                ),
                default=INFINITY,
            )
            out[e] = (ctr, pre, post)
    return out


def declarative_cover_values(
    execution: Execution,
    oracle: HappenedBeforeOracle,
    cover: Sequence[int],
) -> Dict[
    EventId, Tuple[int, Tuple[int, ...], Optional[Tuple[Post, ...]]]
]:
    """Per event: (mctr, mpre, mpost) from the Section-4 definitions.

    ``mpost[c]`` considers only *direct* messages from the event's process
    to cover process ``c`` — exactly the paper's definition — and is
    ``None`` (not stored) for events at cover processes.
    """
    cover = list(cover)
    cover_set = set(cover)
    out: Dict[
        EventId, Tuple[int, Tuple[int, ...], Optional[Tuple[Post, ...]]]
    ] = {}
    for ev in execution.all_events():
        e = ev.eid
        mctr = e.index
        mpre = tuple(
            max(
                (
                    f.index
                    for f in execution.events_at(c)
                    if f.eid == e or oracle.happened_before(f.eid, e)
                ),
                default=0,
            )
            for c in cover
        )
        if e.proc in cover_set:
            out[e] = (mctr, mpre, None)
            continue
        mpost = []
        for c in cover:
            best: Post = INFINITY
            for msg in execution.messages:
                if msg.src != e.proc or msg.dst != c:
                    continue
                if msg.recv_event is None:
                    continue
                if msg.send_event.index >= e.index:  # e = send or e -> send
                    best = min(best, msg.recv_event.index)
            mpost.append(best)
        out[e] = (mctr, mpre, tuple(mpost))
    return out


def reference_past_masks(execution: Execution) -> Tuple[int, ...]:
    """Every event's strict causal past as a packed int, process-major.

    The delivery-order OR recurrence: a receive's past is its process's
    running past plus the send's past and the send itself.  It shares no
    code with the oracle, whose rows are decoded from its vector clocks,
    so tests compare ``past_masks()`` / ``past_matrix()`` against it.
    """
    base = list(accumulate(execution.event_counts(), initial=0))
    past = [0] * execution.n_events
    running = [0] * execution.n_processes
    for ev in execution.delivery_order():
        mask = running[ev.proc]
        if ev.is_receive:
            send = execution.send_of(ev).eid
            at = base[send.proc] + send.index - 1
            mask |= past[at] | (1 << at)
        at = base[ev.proc] + ev.index - 1
        past[at] = mask
        running[ev.proc] = mask | (1 << at)
    return tuple(past)


#: the oracles a cut query must answer alike on (the ``oracles_for`` fixture)
ORACLE_KINDS = ("batch", "frozen", "streaming")


def make_oracle(kind: str, execution: Execution):
    """An oracle of *kind* over *execution*.

    ``"streaming"`` is caught mid-run: only the first ⌈m/2⌉ events of
    ``delivery_order()`` are appended, so a test must bound its cuts and
    seeds by ``full_cut(oracle)`` / :func:`known_ids`, and may use the batch
    oracle of the whole execution as its reference (relations between
    appended events never change).
    """
    if kind == "batch":
        return HappenedBeforeOracle(execution)
    order = execution.delivery_order()
    if kind == "streaming":
        order = order[: (len(order) + 1) // 2]
    inc = IncrementalHBOracle(execution.n_processes)
    for ev in order:
        send = execution.send_of(ev).eid if ev.is_receive else None
        inc.append_event(ev, send)
    return inc.freeze(execution) if kind == "frozen" else inc


def known_ids(oracle) -> List[EventId]:
    """Every event id *oracle* knows, process-major."""
    return [
        EventId(p, k)
        for p in range(oracle.n_processes)
        for k in range(1, oracle.event_count(p) + 1)
    ]


def clip_checkpoints(checkpoints, oracle):
    """*checkpoints* without the positions *oracle*'s events have not reached."""
    return {
        p: [k for k in ks if k <= oracle.event_count(p)]
        for p, ks in checkpoints.items()
    }


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether cut *a* lies inside cut *b*."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def standard_example(k: int) -> Poset:
    """The crown S⁰ₖ: elements a₀..aₖ₋₁, b₀..bₖ₋₁ with aᵢ < bⱼ iff i ≠ j,
    the canonical poset of order dimension exactly ``k`` (k ≥ 2)."""
    a = [("a", i) for i in range(k)]
    b = [("b", j) for j in range(k)]
    return Poset(a + b, {(a[i], b[j]) for i in range(k) for j in range(k) if i != j})
