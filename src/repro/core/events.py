"""Event and message model for asynchronous message-passing executions.

The paper studies an asynchronous system of ``n`` processes communicating
over point-to-point channels.  Each process produces a totally ordered
sequence of *events*; an event is a local step, the send of a message, or the
receipt of a message.  This module defines the immutable value objects used
everywhere else in the library:

- :class:`EventKind` — local / send / receive.
- :class:`EventId` — a ``(process, index)`` pair; ``index`` starts at 1,
  matching the paper's convention that the first event at a process has
  ``ctr = 1``.
- :class:`Event` — an event together with its message context.
- :class:`Message` — a message with identity, endpoints, and the events that
  sent/received it.

Events are deliberately *dumb data*: all semantics (happened-before, cuts,
timestamps) live in :mod:`repro.core.execution`,
:mod:`repro.core.happened_before`, and :mod:`repro.clocks`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Processes are identified by dense integer ids ``0 .. n-1``.
ProcessId = int

#: Messages are identified by dense integer ids in order of sending.
MessageId = int


class EventKind(enum.Enum):
    """The three kinds of events in an asynchronous execution."""

    LOCAL = "local"
    SEND = "send"
    RECEIVE = "receive"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventKind.{self.name}"


@dataclass(frozen=True, order=True, slots=True, init=False)
class EventId:
    """Identity of an event: the process it occurred on and its 1-based index.

    ``EventId(j, x)`` is the paper's :math:`e_x^j` — the ``x``-th event at
    process ``p_j``.  The ordering defined here (process-major) is only used
    for deterministic iteration; it has no causal meaning.  Both fields are
    plain ``int``s: a ``bool``, a float or a numpy integer is a ``TypeError``.
    """

    proc: ProcessId
    index: int

    def __init__(self, proc: ProcessId, index: int) -> None:
        if type(proc) is not int or type(index) is not int:
            raise TypeError(
                f"process id and event index must be int, got "
                f"{type(proc).__name__} and {type(index).__name__}"
            )
        if proc < 0:
            raise ValueError(f"process id must be >= 0, got {proc}")
        if index < 1:
            raise ValueError(f"event index must be >= 1, got {index}")
        _set_proc(self, proc)
        _set_index(self, index)

    def __str__(self) -> str:
        return f"e{self.index}@p{self.proc}"


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """A point-to-point message.

    Attributes
    ----------
    msg_id:
        Dense id assigned in send order (unique within an execution).
    src, dst:
        Sending and receiving process.
    send_event:
        The :class:`EventId` of the send.
    recv_event:
        The :class:`EventId` of the receive, or ``None`` while in flight.
    """

    msg_id: MessageId
    src: ProcessId
    dst: ProcessId
    send_event: EventId
    recv_event: Optional[EventId] = None

    def __init__(
        self,
        msg_id: MessageId,
        src: ProcessId,
        dst: ProcessId,
        send_event: EventId,
        recv_event: Optional[EventId] = None,
    ) -> None:
        if src == dst:
            raise ValueError("self-messages are not part of the model")
        if send_event.proc != src:
            raise ValueError("send event must occur at the source process")
        if recv_event is not None and recv_event.proc != dst:
            raise ValueError("receive event must occur at the destination")
        _set_msg_id(self, msg_id)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_send_event(self, send_event)
        _set_recv_event(self, recv_event)

    @property
    def delivered(self) -> bool:
        """Whether the message has been received."""
        return self.recv_event is not None


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """An event in an execution.

    For ``SEND`` and ``RECEIVE`` events, :attr:`msg_id` identifies the message
    involved; for ``LOCAL`` events it is ``None``.  :attr:`peer` is the other
    endpoint of that message (the destination for a send, the source for a
    receive), kept denormalized because clock algorithms consult it on every
    step.
    """

    eid: EventId
    kind: EventKind
    msg_id: Optional[MessageId] = None
    peer: Optional[ProcessId] = None

    def __init__(
        self,
        eid: EventId,
        kind: EventKind,
        msg_id: Optional[MessageId] = None,
        peer: Optional[ProcessId] = None,
    ) -> None:
        if kind is EventKind.LOCAL:
            if msg_id is not None or peer is not None:
                raise ValueError("local events carry no message")
        else:
            if msg_id is None or peer is None:
                raise ValueError(f"{kind.value} events need msg_id and peer")
            if peer == eid.proc:
                raise ValueError("peer must differ from the event's process")
        _set_eid(self, eid)
        _set_kind(self, kind)
        _set_msg_id_of_event(self, msg_id)
        _set_peer(self, peer)

    @property
    def proc(self) -> ProcessId:
        """The process the event occurred on."""
        return self.eid.proc

    @property
    def index(self) -> int:
        """The 1-based index of the event at its process (the paper's ctr)."""
        return self.eid.index

    @property
    def is_send(self) -> bool:
        return self.kind is EventKind.SEND

    @property
    def is_receive(self) -> bool:
        return self.kind is EventKind.RECEIVE

    @property
    def is_local(self) -> bool:
        return self.kind is EventKind.LOCAL

    def __str__(self) -> str:
        tag = {EventKind.LOCAL: "L", EventKind.SEND: "S", EventKind.RECEIVE: "R"}[
            self.kind
        ]
        extra = "" if self.msg_id is None else f"(m{self.msg_id})"
        return f"{self.eid}:{tag}{extra}"


# Each value class above is built once or twice per event, so its __init__
# checks inline and writes every slot through the slot's own descriptor: the
# generated frozen __init__ would make one ``object.__setattr__`` call per
# field and then call ``__post_init__``.  The generated __init__'s return
# annotation is the object ``None`` (under PEP 563 ours is the string), so
# the signatures stay exactly the generated ones.
_set_proc = EventId.proc.__set__  # type: ignore[attr-defined]
_set_index = EventId.index.__set__  # type: ignore[attr-defined]
_set_msg_id = Message.msg_id.__set__  # type: ignore[attr-defined]
_set_src = Message.src.__set__  # type: ignore[attr-defined]
_set_dst = Message.dst.__set__  # type: ignore[attr-defined]
_set_send_event = Message.send_event.__set__  # type: ignore[attr-defined]
_set_recv_event = Message.recv_event.__set__  # type: ignore[attr-defined]
_set_eid = Event.eid.__set__  # type: ignore[attr-defined]
_set_kind = Event.kind.__set__  # type: ignore[attr-defined]
_set_msg_id_of_event = Event.msg_id.__set__  # type: ignore[attr-defined]
_set_peer = Event.peer.__set__  # type: ignore[attr-defined]
for _cls in (EventId, Message, Event):
    _cls.__init__.__annotations__["return"] = None
del _cls
