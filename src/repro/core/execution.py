"""Executions: validated, append-only records of distributed computations.

An :class:`Execution` is the ground-truth object the whole library revolves
around.  It records, for every process, the totally ordered list of events
that occurred there, together with the message-matching between sends and
receives.  Both the discrete-event simulator (:mod:`repro.sim`) and the
hand-built adversarial constructions (:mod:`repro.lowerbounds`) produce
executions; clock algorithms are replayed over them, and the happened-before
oracle (:mod:`repro.core.happened_before`) derives causality from them.

Executions are built through the mutable :class:`ExecutionBuilder` and then
frozen; a frozen :class:`Execution` is immutable and hashable by identity.

Validation enforced by the builder:

- events at a process are appended with consecutive indices 1, 2, 3, …;
- a receive must name a previously sent, not yet delivered message addressed
  to the receiving process;
- if a :class:`~repro.topology.graph.CommunicationGraph` is supplied, every
  message must travel along an edge of the graph.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.events import (
    Event,
    EventId,
    EventKind,
    Message,
    MessageId,
    ProcessId,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.topology.graph import CommunicationGraph


class ExecutionError(ValueError):
    """Raised when an execution would violate the message-passing model."""


class Execution:
    """An immutable, validated record of a distributed computation.

    Instances are created via :class:`ExecutionBuilder` (or the simulator) —
    not directly.  The class exposes read-only views over events, messages,
    and per-process sequences.
    """

    def __init__(
        self,
        n_processes: int,
        events_by_proc: Sequence[Sequence[Event]],
        messages: Sequence[Message],
        graph: Optional["CommunicationGraph"] = None,
    ) -> None:
        self._n = n_processes
        self._events_by_proc: Tuple[Tuple[Event, ...], ...] = tuple(
            tuple(evts) for evts in events_by_proc
        )
        self._messages: Tuple[Message, ...] = tuple(messages)
        self._graph = graph
        self._n_events = sum(map(len, self._events_by_proc))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_processes(self) -> int:
        """Number of processes in the system (some may have no events)."""
        return self._n

    @property
    def graph(self) -> Optional["CommunicationGraph"]:
        """The communication topology, if one was declared."""
        return self._graph

    @property
    def messages(self) -> Tuple[Message, ...]:
        """All messages, in send order."""
        return self._messages

    def events_at(self, proc: ProcessId) -> Tuple[Event, ...]:
        """The totally ordered events of process *proc*."""
        return self._events_by_proc[proc]

    def all_events(self) -> Iterator[Event]:
        """Iterate over all events, process-major, index order within."""
        for evts in self._events_by_proc:
            yield from evts

    def event(self, eid: EventId) -> Event:
        """Look up an event by id; raises ``KeyError`` if absent.

        Event ``(p, k)`` is the *k*-th of process *p*: it is found by
        position, and nothing is hashed.
        """
        if isinstance(eid, EventId):
            try:
                return self._events_by_proc[eid.proc][eid.index - 1]
            except IndexError:  # proc >= n, or past p's last event
                pass
        raise KeyError(eid)

    def __contains__(self, eid: object) -> bool:
        if not isinstance(eid, EventId):
            return False
        evts = self._events_by_proc
        return eid.proc < len(evts) and eid.index <= len(evts[eid.proc])

    def __len__(self) -> int:
        return self._n_events

    @property
    def n_events(self) -> int:
        """Total number of events across all processes."""
        return self._n_events

    def message(self, msg_id: MessageId) -> Message:
        """Look up a message by id."""
        return self._messages[msg_id]

    def max_events_per_process(self) -> int:
        """The paper's ``K``: the maximum number of events at any process."""
        if not self._events_by_proc:
            return 0
        return max(len(evts) for evts in self._events_by_proc)

    def event_counts(self) -> List[int]:
        """Events per process, as a list indexed by process id.

        Overridden O(1)/column-read by the columnar execution
        (:mod:`repro.core.colstore`).
        """
        return [len(evts) for evts in self._events_by_proc]

    # ------------------------------------------------------------------
    # structural queries used by clocks and applications
    # ------------------------------------------------------------------
    def send_of(self, recv: Event) -> Event:
        """Given a receive event, return the matching send event."""
        if not recv.is_receive:
            raise ValueError(f"{recv} is not a receive event")
        assert recv.msg_id is not None
        # the message table is this execution's: its ids index directly
        send = self._messages[recv.msg_id].send_event
        return self._events_by_proc[send.proc][send.index - 1]

    def undelivered_messages(self) -> List[Message]:
        """Messages sent but never received in this execution."""
        return [m for m in self._messages if not m.delivered]

    #: the memoised :meth:`delivery_order` (a class default, so the columnar
    #: subclass, which skips ``__init__``, finds it without ``__getattr__``)
    _delivery_order: Optional[Tuple[Event, ...]] = None

    def delivery_order(self) -> List[Event]:
        """A total order of all events consistent with happened-before.

        A topological order obtained by a deterministic merge: events are
        emitted process-major but a receive is deferred until its send has
        been emitted.  Useful for replaying clock algorithms over hand-built
        executions.  An execution is immutable, so the merge runs once and
        is memoised; every call returns a fresh list of the same events, so
        a caller may reorder or consume its copy.  An inconsistent execution
        raises :class:`ExecutionError` on every call.
        """
        if self._delivery_order is None:
            self._delivery_order = tuple(self._merge_order())
        return list(self._delivery_order)

    def _merge_order(self) -> List[Event]:
        # cursors[p] events of p are out, in index order: send (q, k) has
        # been emitted iff cursors[q] >= k
        cursors = [0] * self._n
        out: List[Event] = []
        total = self.n_events
        while len(out) < total:
            progressed = False
            for proc in range(self._n):
                while cursors[proc] < len(self._events_by_proc[proc]):
                    ev = self._events_by_proc[proc][cursors[proc]]
                    if ev.is_receive:
                        send = self._messages[ev.msg_id].send_event  # type: ignore[index]
                        if cursors[send.proc] < send.index:
                            break
                    out.append(ev)
                    cursors[proc] += 1
                    progressed = True
            if not progressed:
                raise ExecutionError(
                    "execution is not causally consistent: "
                    "a receive precedes its send"
                )
        return out

    def __repr__(self) -> str:
        per_proc = ",".join(str(len(evts)) for evts in self._events_by_proc)
        return (
            f"Execution(n={self._n}, events=[{per_proc}], "
            f"messages={len(self._messages)})"
        )


_LOCAL, _SEND, _RECEIVE = EventKind.LOCAL, EventKind.SEND, EventKind.RECEIVE


def _bad_process(role: str, proc: object, n: int) -> ExecutionError:
    if type(proc) is not int:
        return ExecutionError(f"{role} {proc!r} is not an int process id")
    return ExecutionError(f"{role} {proc} out of range [0, {n})")


class ExecutionBuilder:
    """Mutable builder that validates the message-passing model step by step.

    Typical use::

        b = ExecutionBuilder(n_processes=3)
        m = b.send(0, 1)            # p0 sends to p1
        b.local(2)                  # p2 takes a local step
        b.receive(1, m)             # p1 receives p0's message
        execution = b.freeze()

    The builder hands out :class:`~repro.core.events.MessageId` values from
    :meth:`send`; :meth:`receive` consumes them.  Messages on a channel are
    *not* forced to be FIFO — the model (and the paper) allows arbitrary
    per-channel reordering.
    """

    def __init__(
        self,
        n_processes: int,
        graph: Optional["CommunicationGraph"] = None,
    ) -> None:
        if n_processes < 1:
            raise ExecutionError("need at least one process")
        if graph is not None and graph.n_vertices != n_processes:
            raise ExecutionError(
                f"graph has {graph.n_vertices} vertices but "
                f"{n_processes} processes were requested"
            )
        self._n = n_processes
        self._graph = graph
        self._events: List[List[Event]] = [[] for _ in range(n_processes)]
        self._messages: List[Message] = []
        self._frozen = False

    # ------------------------------------------------------------------
    # local / send / receive run once per event: each checks inline, in
    # the order below, and builds its values directly
    def local(self, proc: ProcessId) -> Event:
        """Append a local (internal) event at *proc*."""
        if self._frozen:
            raise ExecutionError("builder already frozen")
        if type(proc) is not int or not 0 <= proc < self._n:
            raise _bad_process("process", proc, self._n)
        evts = self._events[proc]
        ev = Event(EventId(proc, len(evts) + 1), _LOCAL)
        evts.append(ev)
        return ev

    def send(self, src: ProcessId, dst: ProcessId) -> MessageId:
        """Append a send event at *src* addressed to *dst*; returns the id."""
        if self._frozen:
            raise ExecutionError("builder already frozen")
        n = self._n
        if type(dst) is not int or not 0 <= dst < n:
            raise _bad_process("destination", dst, n)
        if src == dst:
            raise ExecutionError("self-messages are not part of the model")
        if self._graph is not None and not self._graph.has_edge(src, dst):
            raise ExecutionError(
                f"no channel between p{src} and p{dst} in the topology"
            )
        if type(src) is not int or not 0 <= src < n:
            raise _bad_process("process", src, n)
        evts = self._events[src]
        eid = EventId(src, len(evts) + 1)
        messages = self._messages
        msg_id = len(messages)
        evts.append(Event(eid, _SEND, msg_id, dst))
        messages.append(Message(msg_id, src, dst, eid))
        return msg_id

    def receive(self, proc: ProcessId, msg_id: MessageId) -> Event:
        """Append the receive of message *msg_id* at *proc*."""
        if self._frozen:
            raise ExecutionError("builder already frozen")
        messages = self._messages
        if type(msg_id) is not int or not 0 <= msg_id < len(messages):
            raise ExecutionError(f"unknown message id {msg_id!r}")
        msg = messages[msg_id]
        if msg.recv_event is not None:
            raise ExecutionError(f"message {msg_id} already delivered")
        if msg.dst != proc:
            raise ExecutionError(
                f"message {msg_id} is addressed to p{msg.dst}, not p{proc}"
            )
        if type(proc) is not int or not 0 <= proc < self._n:
            raise _bad_process("process", proc, self._n)
        evts = self._events[proc]
        eid = EventId(proc, len(evts) + 1)
        ev = Event(eid, _RECEIVE, msg_id, msg.src)
        evts.append(ev)
        messages[msg_id] = Message(msg_id, msg.src, proc, msg.send_event, eid)
        return ev

    @property
    def n_processes(self) -> int:
        return self._n

    def last_event(self, proc: ProcessId) -> Event:
        """The most recently appended event at *proc*."""
        if not self._events[proc]:
            raise ExecutionError(f"process {proc} has no events yet")
        return self._events[proc][-1]

    def message(self, msg_id: MessageId) -> Message:
        """The (possibly still undelivered) message with id *msg_id*."""
        if not 0 <= msg_id < len(self._messages):
            raise ExecutionError(f"unknown message id {msg_id}")
        return self._messages[msg_id]

    def freeze(self) -> Execution:
        """Finish building and return the immutable execution."""
        if self._frozen:
            raise ExecutionError("builder already frozen")
        self._frozen = True
        return Execution(self._n, self._events, self._messages, self._graph)
