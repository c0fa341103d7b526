"""Common interface for timestamping algorithms.

Every scheme in the library — Lamport clocks, standard vector clocks, the
paper's inline star and vertex-cover algorithms, and the related-work
baselines — implements :class:`ClockAlgorithm`.  The interface mirrors how a
real protocol stack would host the algorithm:

- A clock step is three integers.  :meth:`ClockAlgorithm.record_local` /
  :meth:`ClockAlgorithm.record_send` /
  :meth:`ClockAlgorithm.record_receive` are invoked as the corresponding
  events occur, with the process, the event's 1-based index there and, for
  a message, the other endpoint.  ``record_send`` returns the *payload*
  piggybacked on the application message; ``record_receive`` gets that
  payload back.  :meth:`ClockAlgorithm.on_local` / ``on_send`` /
  ``on_receive`` take an :class:`~repro.core.events.Event` instead and pass
  its integers on; a host that has no ``Event`` builds none.
- ``record_receive`` returns the control payload *p* owes *peer*, or
  ``None``.  The paper's only control is the receiver's acknowledgement,
  Figure 1's ``⟨ctr_m, ctr_C⟩``: it tells a sender at which index its
  message was received, and it always travels back to that sender, from
  *p* to *peer*, so a host delivers it with ``on_control(p, peer,
  payload)``.  The *transport* is the host's (:mod:`repro.clocks.host`);
  the ordering is the clock's: :class:`InlineClock` applies each channel's
  controls once and in order, whatever order they arrive in.
- :meth:`ClockAlgorithm.timestamp` returns the permanent timestamp of an
  event, or ``None`` for ``⊥`` while it has none;
  :meth:`ClockAlgorithm.is_final` says whether it has one.  Online
  algorithms finalize instantly; the inline algorithms finalize after the
  round trip described in the paper; *offline* finalization at termination is
  modelled by :meth:`ClockAlgorithm.finalize_at_termination`.

Timestamps themselves are small value objects implementing
:class:`Timestamp`: ``a.precedes(b)`` decides ``event(a) -> event(b)`` using
the scheme's own comparison operator (standard vector comparison for vector
clocks, the paper's Theorem 3.1 / 4.1 operators for the inline schemes).
"""

from __future__ import annotations

import abc
from operator import le
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.events import Event, EventId, ProcessId

#: Sentinel used for "no event at the cover process yet / ever" in ``post``
#: fields.  The paper's convention: ``min`` of an empty set is infinity.
INFINITY = float("inf")


class Timestamp(abc.ABC):
    """A permanent timestamp value.

    Subclasses define the scheme-specific comparison.  ``precedes`` must be
    a strict order on the timestamps of a single execution.
    """

    __slots__ = ()

    @abc.abstractmethod
    def precedes(self, other: "Timestamp") -> bool:
        """Whether this timestamp's event happened before *other*'s."""

    @classmethod
    def precedes_matrix(
        cls, timestamps: Sequence["Timestamp"]
    ) -> Optional[List[int]]:
        """Bulk comparison: the full precedes-matrix as packed-int rows.

        Returns ``rows`` with bit ``i`` of ``rows[j]`` set iff
        ``timestamps[i].precedes(timestamps[j])`` — the orientation of the
        oracle's causal-past masks — or ``None`` when the class has no
        word-parallel fast path (callers then fall back to pairwise
        :meth:`precedes` calls).  Overrides must be *exactly* equivalent to
        the pairwise comparison; the test suite cross-checks this on random
        executions for every scheme that provides one.
        """
        return None

    @classmethod
    def precedes_matrix_words(
        cls, timestamps: Sequence["Timestamp"]
    ) -> Optional[Any]:
        """Array-native twin of :meth:`precedes_matrix`.

        Returns the same precedes-matrix as a numpy ``(m, ceil(m/64))``
        ``uint64`` array (rows little-endian-match the packed ints), or
        ``None`` when the scheme has no array fast path *or* numpy is
        unavailable.  An optimisation, not a gate: validation against a
        numpy oracle runs on arrays either way, and without an override it
        converts the rows of :meth:`precedes_matrix` (or of the pairwise
        fallback) once.  Overrides must be byte-identical to
        :meth:`precedes_matrix`; the backend-parity suite pins this.
        """
        return None

    @abc.abstractmethod
    def elements(self) -> Tuple[Any, ...]:
        """The scheme's integer (or real) elements, for size accounting."""

    @property
    def n_elements(self) -> int:
        """Number of stored elements — the paper's size metric (Thm 4.2)."""
        return len(self.elements())


class DuplicateControl(ValueError):
    """A second copy of a control that its channel already applied or holds."""


class ClockAlgorithm(abc.ABC):
    """Base class for all timestamping schemes.

    Subclasses must set :attr:`name` and :attr:`characterizes_causality`
    (``True`` when ``precedes`` captures happened-before exactly, ``False``
    for consistent-but-lossy schemes such as Lamport or plausible clocks),
    and implement the three record steps on integers.  A step checks before
    it moves anything: an index that is not the process's next, or (for a
    scheme that knows the communication graph) a peer the process shares no
    channel with, is a ``ValueError`` and leaves the clock as it was.
    """

    name: str = "abstract"
    #: whether timestamp comparison is *iff* (characterizes causality)
    characterizes_causality: bool = True
    #: whether the scheme is only safe over per-channel FIFO application
    #: message delivery with no loss, duplication, or reordering (e.g. the
    #: Singhal–Kshemkalyani differential clocks, whose diffs are relative to
    #: the previous message on the channel).  Hosts use this to reject
    #: incompatible configurations at construction time.
    requires_fifo_app: bool = False

    def __init__(self, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._n = n_processes
        #: ``(proc, index)`` of every event finalized since the last drain,
        #: in finalization order; :meth:`drain_newly_finalized` hands them
        #: out as :class:`EventId` values
        self._newly_finalized: List[Tuple[ProcessId, int]] = []
        #: ``_stamps[p][k - 1]`` is the permanent timestamp of event
        #: ``(p, k)``, built once: an online scheme appends it through
        #: :meth:`_stamp` as the event occurs, an inline scheme appends
        #: ``None`` (``⊥``) and writes the value when the event becomes final
        self._stamps: List[List[Optional[Timestamp]]] = [[] for _ in range(n_processes)]

    @property
    def n_processes(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # record steps: event *k* (1-based) at process *p*
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def record_local(self, p: ProcessId, k: int) -> None:
        """A local event occurred."""

    @abc.abstractmethod
    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        """*p* sent a message to *peer*; return the payload piggybacked on
        it."""

    @abc.abstractmethod
    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> Any:
        """*p* received a message from *peer* carrying the sender's
        *payload*.

        Returns the control payload *p* now owes *peer*, for the host to
        hand to ``on_control(p, peer, ...)``, or ``None``.
        """

    # ------------------------------------------------------------------
    # the same steps for a host that holds an Event
    # ------------------------------------------------------------------
    def on_local(self, ev: Event) -> None:
        self.record_local(ev.eid.proc, ev.eid.index)

    def on_send(self, ev: Event) -> Any:
        return self.record_send(ev.eid.proc, ev.eid.index, ev.peer)

    def on_receive(self, ev: Event, payload: Any) -> Any:
        return self.record_receive(ev.eid.proc, ev.eid.index, ev.peer, payload)

    def on_control(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """A control message from *src* reached *dst*.

        Default: the scheme uses no control messages.
        """
        raise NotImplementedError(f"{self.name} does not use control messages")

    @property
    def control_channels(self) -> FrozenSet[Tuple[ProcessId, ProcessId]]:
        """The ``(src, dst)`` pairs :meth:`on_control` accepts controls on.

        Default: none, the scheme uses no control messages.
        """
        return frozenset()

    # ------------------------------------------------------------------
    # timestamp queries
    # ------------------------------------------------------------------
    def timestamp(self, eid: EventId) -> Optional[Timestamp]:
        """The permanent timestamp of *eid*, or ``None`` for ``⊥`` (not
        final, or unknown).  A read of the ``_stamps`` table: the same
        object on every call."""
        try:
            return self._stamps[eid.proc][eid.index - 1]
        except IndexError:
            return None

    def is_final(self, eid: EventId) -> bool:
        """Whether the timestamp of *eid* is permanent."""
        return self.timestamp(eid) is not None

    def _expect(self, p: ProcessId, k: int) -> None:
        """Refuse event *k* at *p* unless it is the next one there: a gap or
        a repeat is a host error, not an overwrite.  Every record step does
        this check *before* it moves a counter or merges a payload, so a
        clock that refused an event is unchanged and still accepts the right
        one."""
        expected = len(self._stamps[p]) + 1
        if k != expected:
            raise ValueError(
                f"event index {k} does not match local counter {expected}"
            )

    def _refuse_peer(self, p: ProcessId, peer: ProcessId) -> None:
        """A graph-aware scheme's peer check failed, before anything moved."""
        raise ValueError(
            f"message between p{p} and p{peer} violates the communication graph"
        )

    def _stamp(self, p: ProcessId, k: int, ts: Timestamp) -> None:
        """An online scheme's record step, after :meth:`_expect`: *ts* is
        event ``(p, k)``'s timestamp, final at once."""
        self._stamps[p].append(ts)
        self._newly_finalized.append((p, k))

    def finalize_at_termination(self) -> List[EventId]:
        """Declare the execution terminated.

        No further messages will arrive, so every provisional value is now
        permanent (offline finalization).  Returns the events that became
        final by this call.  Default: nothing to do (online schemes).
        """
        return []

    # ------------------------------------------------------------------
    # crash-recovery support
    # ------------------------------------------------------------------
    def checkpoint(self) -> Any:
        """Snapshot of the complete algorithm state.

        The snapshot is self-contained: mutating the live algorithm after
        taking it leaves the snapshot untouched, and :meth:`restore` brings
        an instance back to exactly this state.  Hosts use checkpoints to
        model crash-recovery of the timestamping service — a timestamp that
        was final when the checkpoint was taken must read back identically
        from a restored instance (finality is permanent; see the chaos
        harness in :mod:`repro.faults.chaos`, which asserts this).

        The default pickles the instance dictionary — one pass, and the
        bytes cannot be mutated through any live reference — which is
        correct for every pure-Python scheme in the library; subclasses
        holding external resources must override both methods.
        """
        import pickle  # on use: hosts that never checkpoint do not load it

        return pickle.dumps(self.__dict__, pickle.HIGHEST_PROTOCOL)

    def restore(self, state: Any) -> None:
        """Replace the algorithm state with a :meth:`checkpoint` snapshot.

        The snapshot itself is not consumed — it can be restored again.
        Only pass snapshots this program took: unpickling runs code.
        """
        import pickle

        state = pickle.loads(state)
        self.__dict__.clear()
        self.__dict__.update(state)

    def drain_newly_finalized(self) -> List[EventId]:
        """Events finalized since the last drain (hosts use this to record
        finalization times)."""
        out = [EventId(p, k) for p, k in self._newly_finalized]
        self._newly_finalized.clear()
        return out

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def payload_elements(self, payload: Any) -> int:
        """Number of scalar elements the payload adds to an app message."""
        return _count_elements(payload)

    def width_bits(self, n_elements: int, max_events: int) -> int:
        """Bits to encode a timestamp of *n_elements* stored elements given
        ≤ *max_events* events per process.

        Default accounting: ``ceil(log2(K+1))`` bits per counter element;
        the inline schemes override it to charge ``ceil(log2(n))`` bits for
        their process-id element (Theorem 4.3).
        """
        return n_elements * counter_bits(max_events)

    def timestamp_bits(self, ts: Timestamp, max_events: int) -> int:
        """Bits to encode *ts*: :meth:`width_bits` of its element count.  A
        scheme whose cost depends on the *value* overrides this instead."""
        return self.width_bits(ts.n_elements, max_events)


class InlineClock(ClockAlgorithm):
    """What the paper's two inline schemes share: the acknowledgement.

    A process *c* that receives an application message from *j* owes *j*
    the control ``⟨ctr_m, ctr_C⟩`` exactly when *j*'s events wait for it
    (the star's centre, a cover process acknowledging a non-cover one).
    :meth:`_ack` logs it on the control channel ``(c, j)`` and returns it
    as ``(seq, a, b)``: *a* the message's send index at *j*, *b* its
    receive index at *c*, *seq* its position on the channel.  The paper
    needs the control channels FIFO; rather than trust the host's,
    :meth:`on_control` simulates one: it applies each channel's controls in
    *seq* order, holds early arrivals until the gap fills, and refuses a
    second copy of a control already applied or held with
    :class:`DuplicateControl`, before anything moves.  The log lets
    :meth:`finalize_at_termination` apply what no host delivered: the
    information exists at *c*, and a terminating run can always flush it.

    A subclass names its control channels, fills ``_open[p]`` — ``{k:
    entry}`` of *p*'s events still ``⊥``, which the flush closes as they
    are — and implements :meth:`_apply_control` and :meth:`_close`.
    """

    def __init__(
        self, n_processes: int, channels: Iterable[Tuple[ProcessId, ProcessId]]
    ) -> None:
        super().__init__(n_processes)
        self._open: List[Dict[int, Any]] = [{} for _ in range(n_processes)]
        #: per control channel: every control emitted on it (control
        #: ``seq`` is entry ``seq``), the next seq to apply, and the early
        #: arrivals by seq
        self._ctrl_emitted: Dict[Tuple[ProcessId, ProcessId], List[Tuple[int, int]]] = {
            chan: [] for chan in channels
        }
        self._ctrl_seq_in = dict.fromkeys(self._ctrl_emitted, 0)
        self._ctrl_buffer: Dict[Tuple[ProcessId, ProcessId], Dict[int, Tuple[int, int]]] = {
            chan: {} for chan in self._ctrl_emitted
        }
        self._terminated = False

    def _ack(self, c: ProcessId, j: ProcessId, a: int, b: int) -> Tuple[int, int, int]:
        """*c* received at its index *b* the message *j* sent at its index
        *a*: log the acknowledgement on channel ``(c, j)`` and return it."""
        emitted = self._ctrl_emitted[(c, j)]
        seq = len(emitted)
        emitted.append((a, b))
        return (seq, a, b)

    @property
    def control_channels(self) -> FrozenSet[Tuple[ProcessId, ProcessId]]:
        return frozenset(self._ctrl_emitted)

    def on_control(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Deliver the control ``(seq, a, b)`` that *src* sent *dst*: apply
        it and every held one it unblocks if it is the channel's next, hold
        it if it is early, refuse it if it is a second copy."""
        chan = (src, dst)
        buf = self._ctrl_buffer.get(chan)
        if buf is None:
            raise ValueError(f"no control channel p{src} -> p{dst}")
        seq, a, b = payload
        expected = self._ctrl_seq_in[chan]
        if seq < expected or seq in buf:
            raise DuplicateControl(f"duplicate control seq {seq} on p{src} -> p{dst}")
        if seq > expected:
            buf[seq] = (a, b)
            return
        self._apply_control(src, dst, a, b)
        expected += 1
        while expected in buf:
            a, b = buf.pop(expected)
            self._apply_control(src, dst, a, b)
            expected += 1
        self._ctrl_seq_in[chan] = expected

    @abc.abstractmethod
    def _apply_control(self, c: ProcessId, j: ProcessId, a: int, b: int) -> None:
        """Channel ``(c, j)``'s next acknowledgement, in order: *j*'s events
        up to index *a* are in the causal past of *c*'s event *b*."""

    @abc.abstractmethod
    def _close(self, p: ProcessId, k: int, entry: Any) -> None:
        """Open event ``(p, k)`` is final: build its timestamp from
        *entry* into ``_stamps``, once, and log it as newly finalized."""

    def timestamp(self, eid: EventId) -> Optional[Timestamp]:
        """The base class's table read, but an event that never occurred
        is a ``KeyError``, not ``⊥``."""
        try:
            return self._stamps[eid.proc][eid.index - 1]
        except IndexError:
            raise KeyError(f"unknown event {eid}") from None

    def finalize_at_termination(self) -> List[EventId]:
        """Apply every control emitted but never delivered, in channel
        order; then no event's value can change, and the open ones close
        as they are."""
        if self._terminated:
            return []
        self._terminated = True
        start = len(self._newly_finalized)
        for chan, emitted in self._ctrl_emitted.items():
            c, j = chan
            for a, b in emitted[self._ctrl_seq_in[chan]:]:
                self._apply_control(c, j, a, b)
            self._ctrl_seq_in[chan] = len(emitted)
            self._ctrl_buffer[chan].clear()
        for p, open_p in enumerate(self._open):
            for k, entry in open_p.items():
                self._close(p, k, entry)
            open_p.clear()
        return [EventId(p, k) for p, k in self._newly_finalized[start:]]

    def width_bits(self, n_elements: int, max_events: int) -> int:
        """Theorem 4.3 accounting: ``id`` costs ``ceil(log2 n)`` bits,
        every other stored element ``ceil(log2(K+1))`` bits (an ∞ entry is
        encoded as 0, which no real receive index uses)."""
        return id_bits(self._n) + (n_elements - 1) * counter_bits(max_events)


def counter_bits(max_events: int) -> int:
    """``ceil(log2(K+1))``, at least 1: bits of a counter that reaches *K*."""
    return max(1, max_events.bit_length())


def id_bits(n_processes: int) -> int:
    """``ceil(log2(n))``, at least 1: bits of a process id among *n*."""
    return max(1, (n_processes - 1).bit_length())


def _count_elements(payload: Any) -> int:
    """Count scalar leaves in a nested payload structure."""
    if payload is None:
        return 0
    if isinstance(payload, (int, float)):
        return 1
    if isinstance(payload, (tuple, list)):
        return sum(_count_elements(x) for x in payload)
    if isinstance(payload, dict):
        return sum(1 + _count_elements(v) for v in payload.values())
    raise TypeError(f"unsupported payload component: {type(payload)!r}")


# ----------------------------------------------------------------------
# standard vector comparison, shared by several schemes
# ----------------------------------------------------------------------
def vector_leq(a: Sequence[float], b: Sequence[float]) -> bool:
    """Standard componentwise ``<=`` on equal-length vectors."""
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return all(map(le, a, b))


def vector_lt(a: Sequence[float], b: Sequence[float]) -> bool:
    """The paper's *standard vector clock comparison*: ``<= and !=``."""
    # vector_leq's body, not a call to it: this runs once per vector,
    # plausible, cluster and cover-to-cover ``precedes``
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return all(map(le, a, b)) and tuple(a) != tuple(b)


# ----------------------------------------------------------------------
# bitset comparison kernel, shared by the bulk precedes-matrix builders
# ----------------------------------------------------------------------
def dominance_rows(
    sources: Iterable[Tuple[Any, int]],
    targets: Iterable[Tuple[Any, int]],
    rows: List[int],
    strict: bool = False,
) -> None:
    """OR scalar-dominance masks into *rows* (a sort + one linear sweep).

    *sources* and *targets* are ``(key, index)`` pairs; after the call, bit
    ``i`` of ``rows[j]`` is set (additionally to whatever was there) for
    every source ``(k_i, i)`` and target ``(k_j, j)`` with ``k_i <= k_j``
    (``k_i < k_j`` when *strict*).  Keys only need a total order; mixing
    ints with ``INFINITY`` is fine.
    """
    src_tag, dst_tag = (0, 1) if not strict else (1, 0)
    seq = sorted(
        [(key, src_tag, i) for key, i in sources]
        + [(key, dst_tag, j) for key, j in targets]
    )
    running = 0
    for _key, tag, idx in seq:
        if tag == src_tag:
            running |= 1 << idx
        else:
            rows[idx] |= running


def total_order_rows(keys: Sequence[Any]) -> List[int]:
    """Precedes rows for a scheme whose comparison is ``key_i < key_j``.

    Tie-safe: equal keys are mutually unordered.
    """
    m = len(keys)
    rows = [0] * m
    order = sorted(range(m), key=lambda i: keys[i])
    running = 0
    i = 0
    while i < m:
        j = i
        while j < m and keys[order[j]] == keys[order[i]]:
            j += 1
        for t in order[i:j]:
            rows[t] = running
        for t in order[i:j]:
            running |= 1 << t
        i = j
    return rows


def standard_vector_rows(
    vectors: Sequence[Tuple[Any, ...]],
) -> Optional[List[int]]:
    """Precedes rows under the standard vector comparison (``<=`` and ``!=``).

    Per coordinate, a sorted sweep yields the mask of vectors dominated at
    that coordinate; rows are the AND across coordinates minus the
    equal-vector groups.  Returns ``None`` when the vectors do not all share
    one length (the pairwise comparison raises in that case, so callers
    should fall back to it).
    """
    m = len(vectors)
    if m == 0:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        return None
    all_mask = (1 << m) - 1
    rows = [all_mask] * m
    for k in range(n):
        tmp = [0] * m
        keyed = [(v[k], i) for i, v in enumerate(vectors)]
        dominance_rows(keyed, keyed, tmp)
        for j in range(m):
            rows[j] &= tmp[j]
    groups: Dict[Tuple[Any, ...], int] = {}
    for i, v in enumerate(vectors):
        groups[v] = groups.get(v, 0) | (1 << i)
    for j, v in enumerate(vectors):
        rows[j] &= ~groups[v]
    return rows


def standard_vector_words(
    vectors: Sequence[Tuple[Any, ...]],
) -> Optional[Any]:
    """Array-native :func:`standard_vector_rows` (numpy uint64 matrix).

    Returns ``None`` when numpy is unavailable or the vectors are not
    finite integral numerics (the pure sweep then handles them) — the
    shared implementation behind every scheme's
    :meth:`Timestamp.precedes_matrix_words` override.
    """
    from repro.core.backend import numpy_available

    if not numpy_available():
        return None
    from repro.core import npkernel

    return npkernel.standard_vector_matrix(vectors)


def precedes_matrix_rows(timestamps: Sequence[Timestamp]) -> List[int]:
    """The full precedes-matrix of *timestamps* as packed-int rows.

    Bit ``i`` of ``rows[j]`` is set iff ``timestamps[i]`` precedes
    ``timestamps[j]``.  Uses the scheme's word-parallel
    :meth:`Timestamp.precedes_matrix` when every timestamp shares one class
    and the class provides one; otherwise falls back to pairwise
    :meth:`Timestamp.precedes` calls.
    """
    if not timestamps:
        return []
    cls = type(timestamps[0])
    if all(type(t) is cls for t in timestamps):
        rows = cls.precedes_matrix(timestamps)
        if rows is not None:
            return rows
    out: List[int] = []
    for f in timestamps:
        row = 0
        bit = 1
        for e in timestamps:
            if e is not f and e.precedes(f):
                row |= bit
            bit <<= 1
        out.append(row)
    return out
