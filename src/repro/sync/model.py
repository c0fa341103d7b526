"""Synchronous computations as asynchronous events (paper §5, Figure 3).

In a synchronous system the sender of a message blocks until the receiver
acknowledges it (Figure 3).  Garg & Skawratananond [10, 11], whose
timestamps the paper compares itself against, treat such a message as one
*joint event* of both endpoints.  Here a joint event is recorded on a core
:class:`~repro.core.execution.ExecutionBuilder` as the asynchronous events
Figure 3 draws, appended together:

- an internal event is one local event (:func:`internal_event`);
- a message is four (:func:`handshake`): the initiator sends, the partner
  receives, the partner sends the acknowledgement, and the initiator
  receives it.

A joint event is named by its first and last :class:`EventId` — the
initiator's send and its receive of the acknowledgement, or the local event
twice — and a run keeps its joint events in creation order, so a joint
event's position in that sequence is its ``uid``.  Joint happened-before is
one rule on the core oracle (:func:`joint_happened_before`)::

    e -> f   iff   e != f  and  first(e) -> last(f)

``first(e)`` precedes every asynchronous event of ``e`` and ``last(f)``
follows every one of ``f``, and every asynchronous message lies inside one
handshake, so a causal path from one to the other changes process only
inside joint events: the synchronous order.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.core.events import EventId
from repro.core.execution import Execution, ExecutionBuilder
from repro.core.happened_before import HappenedBeforeOracle
from repro.topology.graph import CommunicationGraph

#: a joint event: its first and last asynchronous event
Joint = Tuple[EventId, EventId]


def internal_event(builder: ExecutionBuilder, proc: int) -> Joint:
    """Append an internal event at *proc*: one local event."""
    eid = builder.local(proc).eid
    return eid, eid


def handshake(builder: ExecutionBuilder, initiator: int, partner: int) -> Joint:
    """Append a synchronous message from *initiator* to *partner*: the send,
    its receive, the acknowledgement and its receive (Figure 3)."""
    msg = builder.send(initiator, partner)
    first = builder.last_event(initiator).eid
    builder.receive(partner, msg)
    ack = builder.send(partner, initiator)
    return first, builder.receive(initiator, ack).eid


def joint_happened_before(oracle: HappenedBeforeOracle, e: Joint, f: Joint) -> bool:
    """Whether joint event *e* happened before *f*: ``first(e) -> last(f)``
    (a streaming oracle answers it too)."""
    return e != f and oracle.happened_before(e[0], f[1])


def random_sync_execution(
    graph: CommunicationGraph,
    rng: random.Random,
    steps: int = 30,
    p_internal: float = 0.35,
) -> Tuple[Execution, Tuple[Joint, ...]]:
    """A random synchronous computation over *graph* and its joint events."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    builder = ExecutionBuilder(graph.n_vertices, graph=graph)
    edges = list(graph.edges)
    joints = []
    for _ in range(steps):
        if not edges or rng.random() < p_internal:
            joints.append(internal_event(builder, rng.randrange(graph.n_vertices)))
        else:
            a, b = edges[rng.randrange(len(edges))]
            joints.append(handshake(builder, a, b))
    return builder.freeze(), tuple(joints)
