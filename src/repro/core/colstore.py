"""Columnar (structure-of-arrays) event storage.

The object model in :mod:`repro.core.events` spends ~200 bytes per event
once the :class:`~repro.core.events.Event`, its
:class:`~repro.core.events.EventId`, and the per-process list slots are
counted — which caps the epidemic-scale populations the ROADMAP targets.
:class:`EventStore` keeps the same information as parallel append-only
columns (``array('b'/'i')``), one row per event in *append order*:

- ``proc``  — owning process id (interned: dense ints, stored once);
- ``seq``   — 1-based index at that process (the paper's ``ctr``);
- ``kind``  — 0 local / 1 send / 2 receive;
- ``msg``   — message id, or -1 for local events.

Messages are columnar too (``src`` / ``dst`` / send row / receive row,
-1 while in flight), and a per-process row index gives O(1)
``(proc, index) -> row`` lookups.  Appends are O(1) amortized — the
``array`` module grows geometrically — and every append runs the same
validation as :class:`~repro.core.execution.ExecutionBuilder` (graph
edges, message matching, consecutive indices), raising the same
:class:`~repro.core.execution.ExecutionError`.

The public ``Event`` / ``Message`` API is untouched: objects are
*materialized on demand* (:meth:`EventStore.event`,
:meth:`EventStore.events_at`), and :meth:`EventStore.freeze` returns a
:class:`ColumnarExecution` — a real
:class:`~repro.core.execution.Execution` subclass that defers object
materialization until something actually asks for events, so oracles and
replay code work unchanged while the run itself retains only columns.

No numpy required: columns are stdlib ``array`` objects and every
consumer — including the streaming oracle's
:meth:`~repro.core.incremental.IncrementalHBOracle.sync_store` drain —
reads them through the scalar row accessors below.

The simulator does not record through this store (it measured slower and
larger end to end — EXPERIMENTS.md, *Decision record*); it is a library
for callers that build or re-encode an execution themselves.
Byte-identity of everything downstream with the object builder is pinned
by ``tests/core/test_colstore_parity.py`` and the conformance fuzzer's
``store-differential`` invariant.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.events import (
    Event,
    EventId,
    EventKind,
    Message,
    MessageId,
    ProcessId,
)
from repro.core.execution import Execution, ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.topology.graph import CommunicationGraph

#: compact kind codes (column values) <-> the public enum
KIND_LOCAL, KIND_SEND, KIND_RECEIVE = 0, 1, 2
_KIND_TO_ENUM = {
    KIND_LOCAL: EventKind.LOCAL,
    KIND_SEND: EventKind.SEND,
    KIND_RECEIVE: EventKind.RECEIVE,
}
_ENUM_TO_KIND = {v: k for k, v in _KIND_TO_ENUM.items()}


class EventStore:
    """Structure-of-arrays storage for one execution's events and messages.

    Parameters
    ----------
    n_processes:
        Number of processes; process ids are the interned ``0..n-1`` range.
    graph:
        Optional topology; sends are validated against its edges, exactly
        like :class:`~repro.core.execution.ExecutionBuilder`.
    """

    __slots__ = (
        "_n", "_graph", "_proc", "_seq", "_kind", "_msg",
        "_rows_of", "_msrc", "_mdst", "_msend", "_mrecv",
    )

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
        # event columns, append order (row id = append rank)
        self._proc = array("i")
        self._seq = array("i")
        self._kind = array("b")
        self._msg = array("i")  # -1 for local events
        # per process: global row of each of its events, in index order
        self._rows_of: List[array] = [array("i") for _ in range(n_processes)]
        # message columns, send order
        self._msrc = array("i")
        self._mdst = array("i")
        self._msend = array("i")  # global row of the send event
        self._mrecv = array("i")  # global row of the receive, -1 in flight

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_processes(self) -> int:
        return self._n

    @property
    def graph(self) -> Optional["CommunicationGraph"]:
        return self._graph

    @property
    def n_events(self) -> int:
        return len(self._proc)

    def count_at(self, proc: ProcessId) -> int:
        """Events appended at *proc* so far."""
        return len(self._rows_of[proc])

    def counts(self) -> List[int]:
        """Per-process event counts (index 1..counts[p] exist at p)."""
        return [len(rows) for rows in self._rows_of]

    def nbytes(self) -> int:
        """Retained column bytes — the bench's bytes-per-event numerator."""
        cols = [
            self._proc, self._seq, self._kind, self._msg,
            self._msrc, self._mdst, self._msend, self._mrecv,
            *self._rows_of,
        ]
        return sum(len(c) * c.itemsize for c in cols)

    # ------------------------------------------------------------------
    # appends — O(1) amortized, builder-equivalent validation
    # ------------------------------------------------------------------
    def append_local(self, proc: ProcessId) -> int:
        """Append a local event at *proc*; returns its global row."""
        if not 0 <= proc < self._n:
            raise ExecutionError(f"process {proc} out of range [0, {self._n})")
        row = len(self._proc)
        rows = self._rows_of[proc]
        self._proc.append(proc)
        self._seq.append(len(rows) + 1)
        self._kind.append(KIND_LOCAL)
        self._msg.append(-1)
        rows.append(row)
        return row

    def append_send(self, src: ProcessId, dst: ProcessId) -> MessageId:
        """Append a send from *src* to *dst*; returns the new message id."""
        if not 0 <= src < self._n:
            raise ExecutionError(f"process {src} out of range [0, {self._n})")
        if not 0 <= dst < self._n:
            raise ExecutionError(f"destination {dst} out of range [0, {self._n})")
        if src == dst:
            raise ExecutionError("self-messages are not part of the model")
        if self._graph is not None and not self._graph.has_edge(src, dst):
            raise ExecutionError(
                f"no channel between p{src} and p{dst} in the topology"
            )
        row = len(self._proc)
        msg_id = len(self._msrc)
        rows = self._rows_of[src]
        self._proc.append(src)
        self._seq.append(len(rows) + 1)
        self._kind.append(KIND_SEND)
        self._msg.append(msg_id)
        rows.append(row)
        self._msrc.append(src)
        self._mdst.append(dst)
        self._msend.append(row)
        self._mrecv.append(-1)
        return msg_id

    def append_receive(self, proc: ProcessId, msg_id: MessageId) -> int:
        """Append the receive of *msg_id* at *proc*; returns its global row."""
        if not 0 <= msg_id < len(self._msrc):
            raise ExecutionError(f"unknown message id {msg_id}")
        if self._mrecv[msg_id] >= 0:
            raise ExecutionError(f"message {msg_id} already delivered")
        if self._mdst[msg_id] != proc:
            raise ExecutionError(
                f"message {msg_id} is addressed to p{self._mdst[msg_id]}, "
                f"not p{proc}"
            )
        row = len(self._proc)
        rows = self._rows_of[proc]
        self._proc.append(proc)
        self._seq.append(len(rows) + 1)
        self._kind.append(KIND_RECEIVE)
        self._msg.append(msg_id)
        rows.append(row)
        self._mrecv[msg_id] = row
        return row

    # ------------------------------------------------------------------
    # row-level reads
    # ------------------------------------------------------------------
    def row_of(self, proc: ProcessId, index: int) -> int:
        """Global row of the *index*-th (1-based) event at *proc*."""
        return self._rows_of[proc][index - 1]

    def kind_of(self, row: int) -> int:
        """The compact kind code (``KIND_LOCAL``/``KIND_SEND``/``KIND_RECEIVE``)."""
        return self._kind[row]

    def msg_of(self, row: int) -> int:
        """Message id of the event at *row*, or -1 for local events."""
        return self._msg[row]

    def send_row_of(self, msg_id: MessageId) -> int:
        """Global row of the send event of *msg_id* (the send anchor)."""
        return self._msend[msg_id]

    # ------------------------------------------------------------------
    # object materialization (the unchanged public API, on demand)
    # ------------------------------------------------------------------
    def event_id(self, row: int) -> EventId:
        return EventId(self._proc[row], self._seq[row])

    def event(self, row: int) -> Event:
        """Materialize the event at *row* as a public :class:`Event`."""
        kind = self._kind[row]
        eid = EventId(self._proc[row], self._seq[row])
        if kind == KIND_LOCAL:
            return Event(eid, EventKind.LOCAL)
        msg_id = self._msg[row]
        peer = (
            self._mdst[msg_id] if kind == KIND_SEND else self._msrc[msg_id]
        )
        return Event(eid, _KIND_TO_ENUM[kind], msg_id=msg_id, peer=peer)

    def message(self, msg_id: MessageId) -> Message:
        """Materialize message *msg_id* (``recv_event=None`` while in flight)."""
        if not 0 <= msg_id < len(self._msrc):
            raise ExecutionError(f"unknown message id {msg_id}")
        send_row = self._msend[msg_id]
        recv_row = self._mrecv[msg_id]
        return Message(
            msg_id,
            self._msrc[msg_id],
            self._mdst[msg_id],
            EventId(self._proc[send_row], self._seq[send_row]),
            None
            if recv_row < 0
            else EventId(self._proc[recv_row], self._seq[recv_row]),
        )

    def events_at(self, proc: ProcessId) -> Tuple[Event, ...]:
        """Materialize the ordered events of *proc*."""
        return tuple(self.event(row) for row in self._rows_of[proc])

    def messages(self) -> Tuple[Message, ...]:
        """Materialize all messages, in send order."""
        return tuple(self.message(m) for m in range(len(self._msrc)))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_execution(cls, execution: Execution) -> "EventStore":
        """Re-encode an object-model execution as columns, id-identically.

        Store message ids are allocated in append order, so sends must be
        replayed in original message-id order for the round-trip to be
        exact.  ``delivery_order()`` alone does not guarantee that (its
        process-major merge can reorder independent sends), so this walks
        a merge with one extra gate: a send is deferred until every
        lower-numbered message has been sent.  The original construction
        order witnesses that such an order exists, so the merge always
        progresses.
        """
        store = cls(execution.n_processes, execution.graph)
        n = execution.n_processes
        per_proc = [execution.events_at(p) for p in range(n)]
        cursors = [0] * n
        sent: set = set()
        next_msg = 0
        total = execution.n_events
        done = 0
        while done < total:
            progressed = False
            for p in range(n):
                while cursors[p] < len(per_proc[p]):
                    ev = per_proc[p][cursors[p]]
                    if ev.is_local:
                        store.append_local(p)
                    elif ev.is_send:
                        if ev.msg_id != next_msg:
                            break
                        msg = execution.message(ev.msg_id)
                        store.append_send(msg.src, msg.dst)
                        sent.add(ev.msg_id)
                        next_msg += 1
                    else:
                        if ev.msg_id not in sent:
                            break
                        store.append_receive(p, ev.msg_id)
                    cursors[p] += 1
                    done += 1
                    progressed = True
            if not progressed:
                raise ExecutionError(
                    "execution is not causally consistent: cannot replay "
                    "sends in message-id order"
                )
        return store

    def freeze(self) -> "ColumnarExecution":
        """An :class:`Execution` view over these columns (lazy objects)."""
        return ColumnarExecution(self)


class ColumnarExecution(Execution):
    """An :class:`Execution` backed by an :class:`EventStore`.

    Every inherited method works unchanged: the object-model attributes
    (``_events_by_proc``, ``_messages``) are materialized
    lazily on first touch via ``__getattr__``, so consumers that never
    ask for event objects (O(1) counts, the columnar kernel fast path)
    keep the columnar memory footprint.
    """

    def __init__(self, store: EventStore) -> None:
        # deliberately NOT calling Execution.__init__: the whole point is
        # to defer the per-event object materialization it performs
        self._n = store.n_processes
        self._graph = store.graph
        self._store = store

    @property
    def store(self) -> EventStore:
        """The backing columnar store."""
        return self._store

    def __getattr__(self, name: str):
        # lazy materialization of the object-model attributes; runs only
        # on first access (absent attributes), then caches on the instance
        if name == "_events_by_proc":
            value: object = tuple(
                self._store.events_at(p) for p in range(self._n)
            )
        elif name == "_messages":
            value = self._store.messages()
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        object.__setattr__(self, name, value)
        return value

    # O(1) overrides that would otherwise force materialization
    def __len__(self) -> int:
        return self._store.n_events

    @property
    def n_events(self) -> int:
        return self._store.n_events

    def __contains__(self, eid: object) -> bool:
        return (
            isinstance(eid, EventId)
            and eid.proc < self._n
            and eid.index <= self._store.count_at(eid.proc)
        )

    def event_counts(self) -> List[int]:
        return self._store.counts()

    def max_events_per_process(self) -> int:
        return max(self._store.counts(), default=0)


class ColumnarExecutionBuilder:
    """Drop-in :class:`~repro.core.execution.ExecutionBuilder` replacement.

    Same method surface and validation errors, but events land in an
    :class:`EventStore` instead of per-event heap objects; the ``Event`` /
    ``Message`` objects it *returns* are materialized transiently for the
    caller (clock hooks consume and drop them) — nothing object-shaped is
    retained.  :meth:`freeze` yields a :class:`ColumnarExecution`.
    """

    __slots__ = ("_store", "_frozen")

    def __init__(
        self,
        n_processes: int,
        graph: Optional["CommunicationGraph"] = None,
    ) -> None:
        self._store = EventStore(n_processes, graph)
        self._frozen = False

    @property
    def store(self) -> EventStore:
        return self._store

    @property
    def n_processes(self) -> int:
        return self._store.n_processes

    def _check_open(self) -> None:
        if self._frozen:
            raise ExecutionError("builder already frozen")

    def local(self, proc: ProcessId) -> Event:
        self._check_open()
        return self._store.event(self._store.append_local(proc))

    def send(self, src: ProcessId, dst: ProcessId) -> MessageId:
        self._check_open()
        return self._store.append_send(src, dst)

    def receive(self, proc: ProcessId, msg_id: MessageId) -> Event:
        self._check_open()
        return self._store.event(self._store.append_receive(proc, msg_id))

    def last_event(self, proc: ProcessId) -> Event:
        if self._store.count_at(proc) == 0:
            raise ExecutionError(f"process {proc} has no events yet")
        return self._store.event(
            self._store.row_of(proc, self._store.count_at(proc))
        )

    def message(self, msg_id: MessageId) -> Message:
        return self._store.message(msg_id)

    def freeze(self) -> ColumnarExecution:
        self._check_open()
        self._frozen = True
        return self._store.freeze()
