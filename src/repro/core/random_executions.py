"""Random execution generation for property-based testing and fuzzing.

Generates executions directly (no virtual-time simulation): at each step
the generator either delivers a random in-flight message, performs a local
event, or sends along a random edge of the communication graph.  Every
interleaving produced this way is a valid asynchronous execution; messages
may remain undelivered, and per-channel ordering is deliberately *not* FIFO
— the paper's model allows arbitrary reordering and the clock algorithms
must tolerate it.

Two layers:

- :func:`random_ops` produces the execution as a flat list of *ops* —
  ``("local", p)``, ``("send", m, u, v)``, ``("recv", m)`` — where ``m`` is
  a stable message tag.  Ops are plain tuples of ints/strs, so they
  JSON-serialize, diff cleanly, and can be *edited*: the conformance
  shrinker (:mod:`repro.conformance.shrinker`) deletes ops and re-validates
  with :func:`normalize_ops`.
- :func:`execution_from_ops` replays an op list through the validating
  :class:`~repro.core.execution.ExecutionBuilder`, :func:`ops_of` is its
  inverse (the saved form of an execution, :mod:`repro.core.trace`), and
  :func:`random_execution` composes generation and replay on non-FIFO,
  fault-free channels (its random stream is unchanged from when it built
  executions directly).

An optional :class:`~repro.faults.models.FaultModel` lets the fuzzer reuse
the structured fault schedules from :mod:`repro.faults`: each send consults
``message_fate`` (with the step index as virtual time) and a dropped
message simply never becomes deliverable — the send event still exists,
exercising the undelivered-message paths of every clock scheme.  Message
duplication and crash schedules are not representable here (the execution
model matches each message to at most one receive), so only the drop
component of a fate is honored.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.execution import Execution, ExecutionBuilder, ExecutionError
from repro.topology.graph import CommunicationGraph

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.models import FaultModel

#: One generation step: ``("local", proc)``, ``("send", tag, src, dst)``,
#: or ``("recv", tag)``.  Tags are assigned in send order and stay attached
#: to their send when ops are deleted, so a shrunk op list still names the
#: same messages.
Op = Tuple  # heterogeneous; see above

#: probability a step delivers a random in-flight message (when any)
P_DELIVER = 0.45
#: probability a step is a local event (otherwise a send on a random edge;
#: graphs with no edges only produce local events)
P_LOCAL = 0.15


def random_ops(
    graph: CommunicationGraph,
    rng: random.Random,
    steps: int = 30,
    deliver_all: bool = False,
    fifo: bool = False,
    fault: Optional["FaultModel"] = None,
) -> List[Op]:
    """Generate the op list of a random execution over *graph*.

    Parameters
    ----------
    steps:
        Number of generation steps (each produces one event): a delivery
        with probability ``P_DELIVER``, else a local event with probability
        ``P_LOCAL``, else a send.
    deliver_all:
        Deliver every remaining in-flight message at the end, in random
        order (useful when full finalization is desired).
    fifo:
        Enforce per-directed-channel FIFO delivery: a delivery step picks a
        random channel with in-flight messages and delivers its *oldest*
        one.  Needed by schemes that assume FIFO channels (e.g.
        :class:`~repro.clocks.vector_sk.SKVectorClock`).
    fault:
        Optional fault model; each send consults
        ``fault.message_fate(src, dst, now=step, rng)`` and a ``drop`` fate
        leaves the message undelivered forever (it never enters the
        in-flight set, and ``deliver_all`` does not resurrect it).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if fault is not None:
        reset = getattr(fault, "reset", None)
        if callable(reset):
            reset(rng)
    ops: List[Op] = []
    edges = list(graph.edges)
    in_flight: List[Tuple[int, int, int]] = []  # (tag, src, dst)
    next_tag = 0

    def deliver_one() -> None:
        if fifo:
            channels = sorted({(s, d) for _m, s, d in in_flight})
            src, dst = channels[rng.randrange(len(channels))]
            idx = next(
                i
                for i, (_m, s, d) in enumerate(in_flight)
                if (s, d) == (src, dst)
            )
        else:
            idx = rng.randrange(len(in_flight))
        tag, _src, _dst = in_flight.pop(idx)
        ops.append(("recv", tag))

    for step in range(steps):
        roll = rng.random()
        if in_flight and roll < P_DELIVER:
            deliver_one()
        elif not edges or roll < P_DELIVER + P_LOCAL:
            ops.append(("local", rng.randrange(graph.n_vertices)))
        else:
            u, v = edges[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                u, v = v, u
            tag = next_tag
            next_tag += 1
            ops.append(("send", tag, u, v))
            dropped = False
            if fault is not None:
                fate = fault.message_fate(u, v, float(step), rng)
                dropped = fate.drop
            if not dropped:
                in_flight.append((tag, u, v))
    if deliver_all:
        if fifo:
            while in_flight:
                deliver_one()
        else:
            rng.shuffle(in_flight)
            for tag, _src, _dst in in_flight:
                ops.append(("recv", tag))
    return ops


def normalize_ops(ops: Sequence[Op]) -> List[Op]:
    """Drop ops invalidated by deletions, keeping the rest in order.

    A ``recv`` survives only if its send appears earlier in the (possibly
    shrunk) list and the tag has not been received before.  This is the
    closure the shrinker relies on: any subsequence of a valid op list
    normalizes to a valid op list.
    """
    sent: set = set()
    received: set = set()
    out: List[Op] = []
    for op in ops:
        kind = op[0]
        if kind == "send":
            sent.add(op[1])
        elif kind == "recv":
            tag = op[1]
            if tag not in sent or tag in received:
                continue
            received.add(tag)
        out.append(op)
    return out


def execution_from_ops(
    graph: CommunicationGraph, ops: Iterable[Op], builder=None
) -> Execution:
    """Build a validated :class:`Execution` from an op list.

    Raises :class:`~repro.core.execution.ExecutionError` when the list is
    not a valid execution — run
    :func:`normalize_ops` first after editing an op list.  *builder*
    substitutes a drop-in replacement for the default
    :class:`~repro.core.execution.ExecutionBuilder` (the conformance
    fuzzer's store differential replays the same ops through the columnar
    builder this way).
    """
    if builder is None:
        builder = ExecutionBuilder(graph.n_vertices, graph=graph)
    msg_ids: dict = {}  # tag -> builder MessageId
    for op in ops:
        kind = op[0]
        if kind == "local":
            builder.local(op[1])
        elif kind == "send":
            tag, src, dst = op[1], op[2], op[3]
            if tag in msg_ids:
                raise ExecutionError(f"duplicate send tag {tag}")
            msg_ids[tag] = builder.send(src, dst)
        elif kind == "recv":
            tag = op[1]
            if tag not in msg_ids:
                raise ExecutionError(f"recv of unknown tag {tag}")
            msg = builder.message(msg_ids[tag])
            builder.receive(msg.dst, msg_ids[tag])
        else:
            raise ExecutionError(f"unknown op kind {kind!r}")
    return builder.freeze()


def ops_of(execution: Execution) -> List[Op]:
    """The op list :func:`execution_from_ops` rebuilds *execution* from.

    A message's tag is its id.  Messages are walked in id order, each
    sender advancing to its send; a receive met on the way is of an earlier
    id (already sent), so a rebuild gives every message its old id.
    """
    ops: List[Op] = []
    done = [0] * execution.n_processes

    def advance(p: int, upto: int) -> None:
        for ev in execution.events_at(p)[done[p]:upto]:
            if ev.is_send:
                ops.append(("send", ev.msg_id, p, execution.message(ev.msg_id).dst))
            else:
                ops.append(("recv", ev.msg_id) if ev.is_receive else ("local", p))
        done[p] = upto

    for msg in execution.messages:
        advance(msg.src, msg.send_event.index)
    for p in range(execution.n_processes):
        advance(p, len(execution.events_at(p)))
    return ops


def random_execution(
    graph: CommunicationGraph,
    rng: random.Random,
    steps: int = 30,
    deliver_all: bool = False,
) -> Execution:
    """A random execution over *graph* (see :func:`random_ops`)."""
    ops = random_ops(graph, rng, steps=steps, deliver_all=deliver_all)
    return execution_from_ops(graph, ops)
