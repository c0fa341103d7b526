"""Incremental happened-before oracle: the row is a vector clock.

An n-entry vector clock characterises happened-before (Fidge 1991, Mattern
1988; the premise of the paper and of Vaidya-Kulkarni)::

    e -> f   iff   e != f  and  vc_f[e.proc] >= e.index

so the streaming oracle keeps exactly that per event and nothing else:

- each process owns one flat ``array('i')``; the clock of its ``k``-th event
  is the slice ``[(k-1)*n, k*n)`` — 4n bytes per event, no per-event Python
  object, no ``EventId``-keyed dict, no numpy;
- ``append_local`` / ``append_send`` bump the process's running clock and
  append it; ``append_receive`` first max-merges the matching send's slice
  into it.  That is the whole recurrence, and it is inherently incremental:
  no append ever touches an existing row;
- ``happened_before`` is two index operations and one integer compare;
  ``causal_past`` / ``relation_counts`` are read off the same clocks (a
  past is a union of per-process prefixes).

There is **one** row-construction path, :meth:`IncrementalHBOracle._append`:
every append finalizes its clock and its metrics at once.

Because causal pasts are append-monotone (appending an event never changes
the clock of an existing event), every answer the oracle gives online is
*final* — exactly why conflict/predicate detection can act on it while the
execution is still running.

**Feeding from a columnar store.**  A producer that writes a
:class:`~repro.core.colstore.EventStore` need not mirror each event into
the oracle: :meth:`~IncrementalHBOracle.bind_store` attaches the store,
and :meth:`~IncrementalHBOracle.flush` — called by every query and count
and by ``freeze`` — drains the rows appended since the last drain.
:meth:`~IncrementalHBOracle.sync_store` is the explicit form (``upto`` caps
the batch).  Draining reads the store's scalar accessors and feeds the
same ``_append``, so no ``Event`` objects are materialized and clocks and
metric totals equal the per-event feed's.  With no store bound, ``flush``
does nothing.

The ``batch`` constructor keyword is accepted and has no effect; it is
still spelled in the signature because the benchmark harness under
``perf/`` passes it.

``freeze(execution)`` checks the per-process counts and hands the clock
table to a :class:`HappenedBeforeOracle` — the same object the public
batch constructor builds by streaming the execution through this class —
which decodes the O(|E|²)-bit causal-past rows only if asked for bits.

Observability (:mod:`repro.obs`): ``oracle.appends`` and
``oracle.append_words`` (clock entries written: n per append) counters on
the registry active at construction.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Set, Tuple, Union

from repro.core.colstore import KIND_RECEIVE, EventStore
from repro.core.events import Event, EventId, ProcessId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.obs.metrics import MetricsRegistry, active_registry

#: either oracle class; both answer ``n_processes`` / ``event_count`` /
#: ``vector_clock`` / ``happened_before``, which is all a cut query reads
AnyOracle = Union[HappenedBeforeOracle, "IncrementalHBOracle"]


class IncrementalHBOracle:
    """Happened-before oracle maintained event-by-event while a run streams.

    Parameters
    ----------
    n_processes:
        Number of processes (fixed up front, like every clock algorithm).
    registry:
        Metrics registry for the ``oracle.*`` instruments; defaults to the
        registry active at construction time.
    batch:
        Accepted and without effect: every append finalizes its clock at
        once, and :meth:`flush` only drains a bound store.
    """

    def __init__(
        self,
        n_processes: int,
        *,
        registry: Optional[MetricsRegistry] = None,
        batch: bool = False,  # ignored; perf/workloads/sim.py passes it
    ) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._n = n_processes
        #: per process, its events' vector clocks back to back: the clock of
        #: event ``(p, k)`` is ``_clocks[p][(k - 1) * n : k * n]``
        self._clocks: List[array] = [array("i") for _ in range(n_processes)]
        #: running clock per process: the clock of its latest event
        self._proc_clock: List[List[int]] = [
            [0] * n_processes for _ in range(n_processes)
        ]
        #: running ``sum(sum(vc) - 1)`` over all events: an event's strict
        #: past has ``sum(vc) - 1`` members, so relation_counts is O(1)
        self._ordered_pairs = 0
        # the bound EventStore (drained by flush) and rows ingested so far
        self._src_store: Optional[EventStore] = None
        self._synced = 0
        self._n_events = 0
        reg = registry if registry is not None else active_registry()
        self._m_appends = reg.counter("oracle.appends")
        self._m_append_words = reg.counter("oracle.append_words")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_processes(self) -> int:
        return self._n

    @property
    def n_events(self) -> int:
        """Events appended so far."""
        self.flush()
        return self._n_events

    def event_count(self, proc: ProcessId) -> int:
        """Events appended at *proc* so far."""
        self.flush()
        return len(self._clocks[proc]) // self._n

    def __contains__(self, eid: EventId) -> bool:
        self.flush()
        return (
            0 <= eid.proc < self._n
            and 1 <= eid.index <= len(self._clocks[eid.proc]) // self._n
        )

    def _offset(self, eid: EventId) -> int:
        """Where *eid*'s clock starts in its process's table."""
        p = eid.proc
        off = (eid.index - 1) * self._n
        if not (0 <= p < self._n and 0 <= off < len(self._clocks[p])):
            raise KeyError(f"{eid} has not been appended")
        return off

    # ------------------------------------------------------------------
    # appends — the O(n) streaming surface
    # ------------------------------------------------------------------
    def _append(self, eid: EventId, send_clock: Optional[array] = None) -> None:
        p = eid.proc
        n = self._n
        if not 0 <= p < n:
            raise ValueError(f"process {p} out of range [0, {n})")
        table = self._clocks[p]
        if (eid.index - 1) * n != len(table):
            raise ValueError(
                f"out-of-order append: expected index {len(table) // n + 1} "
                f"at p{p}, got {eid.index}"
            )
        clock = self._proc_clock[p]
        if send_clock is not None:
            # few entries move per merge, so the guarded loop beats
            # map(max, ...) and a rebuilt list
            for k, seen in enumerate(send_clock):
                if seen > clock[k]:
                    clock[k] = seen
        clock[p] += 1
        table.fromlist(clock)
        self._ordered_pairs += sum(clock) - 1
        self._n_events += 1
        self._m_appends.inc()
        self._m_append_words.inc(n)

    def append_local(self, eid: EventId) -> None:
        """Record a local event.  Must be the next index at its process."""
        self._append(eid)

    def append_send(self, eid: EventId) -> None:
        """Record a send event (causally identical to a local step)."""
        self._append(eid)

    def append_receive(self, eid: EventId, send: EventId) -> None:
        """Record the receive matching the already-appended *send*."""
        off = self._offset(send)
        self._append(eid, self._clocks[send.proc][off : off + self._n])

    def append_event(
        self, ev: Event, send: Optional[EventId] = None
    ) -> None:
        """Dispatch on the event kind; receives require the matching *send*."""
        if ev.is_receive:
            if send is None:
                raise ValueError(f"receive {ev.eid} needs its send event id")
            self.append_receive(ev.eid, send)
        else:
            self.append_local(ev.eid)

    def ingest(self, execution: Execution) -> "IncrementalHBOracle":
        """Stream a completed execution through the append path.

        Events are fed in ``delivery_order()`` (any causally consistent
        order yields identical clocks).  Returns ``self`` for chaining.
        """
        for ev in execution.delivery_order():
            if ev.is_receive:
                self.append_receive(ev.eid, execution.send_of(ev).eid)
            else:
                self.append_local(ev.eid)
        return self

    # ------------------------------------------------------------------
    # columnar-store feed
    # ------------------------------------------------------------------
    def bind_store(self, store: EventStore) -> None:
        """Attach *store* as this oracle's append source.

        Instead of mirroring every event into the oracle with a Python
        call, the producer writes the columnar store once and every oracle
        query path drains the new rows via :meth:`flush` /
        :meth:`sync_store`.
        """
        if store.n_processes != self._n:
            raise ValueError(
                f"store has {store.n_processes} processes, "
                f"oracle was built for {self._n}"
            )
        if self._src_store is not None and self._src_store is not store:
            raise ValueError("oracle is already bound to a different store")
        self._src_store = store

    def sync_store(self, store: EventStore, upto: Optional[int] = None) -> int:
        """Append store rows ``[synced_so_far, upto)``.

        Rows are read through the store's scalar accessors and fed to the
        same :meth:`_append` as per-event calls — no ``Event`` objects.
        They must continue each process's sequence exactly where the
        oracle left off (they do whenever the oracle has only ever been
        fed from *store*), else ``ValueError``.  Repeated calls ingest
        only what is new; *upto* (a row count) caps the batch for callers
        amortizing their own latency.  The first call pins *store*: the
        synced-row counter is only meaningful against one store, so a
        different one later is an error rather than silently appearing
        fully ingested.  Returns the number of rows ingested.
        """
        self.bind_store(store)
        start = self._synced
        stop = store.n_events if upto is None else min(upto, store.n_events)
        if stop <= start:
            return 0
        for row in range(start, stop):
            eid = store.event_id(row)
            if store.kind_of(row) == KIND_RECEIVE:
                send_row = store.send_row_of(store.msg_of(row))
                self.append_receive(eid, store.event_id(send_row))
            else:
                self._append(eid)
        self._synced = stop
        return stop - start

    def flush(self) -> None:
        """Drain the rows a bound store has gained since the last drain.

        Every query and count calls this implicitly; it is public so callers
        with latency deadlines can pick their own amortization points.
        No-op when no store is bound or nothing is new.
        """
        store = self._src_store
        if store is not None and store.n_events > self._synced:
            self.sync_store(store)

    # ------------------------------------------------------------------
    # queries: each reads the clock table, nothing is memoized
    # ------------------------------------------------------------------
    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Whether ``e -> f``.  Final the moment both events are appended."""
        self.flush()
        self._offset(e)  # an unknown event is a KeyError, not False
        seen = self._clocks[f.proc][self._offset(f) + e.proc]
        # f's own entry is its index, so the same-process case needs `>`
        return seen > e.index if e.proc == f.proc else seen >= e.index

    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        self.flush()
        off = self._offset(eid)  # raises KeyError for unknown events
        return tuple(self._clocks[eid.proc][off : off + self._n])

    def causal_past(self, f: EventId) -> Set[EventId]:
        """All appended events ``e`` with ``e -> f``."""
        # a past is one prefix per process; f's own prefix stops short of f
        return {
            EventId(p, k)
            for p, seen in enumerate(self.vector_clock(f))
            for k in range(1, seen + (p != f.proc))
        }

    def relation_counts(self) -> Tuple[int, int]:
        """``(ordered_pairs, concurrent_unordered_pairs)`` so far.

        The ordered-pair count is maintained at append time, so this is
        O(1) arithmetic — no table scan.
        """
        self.flush()
        m = self._n_events
        return self._ordered_pairs, m * (m - 1) // 2 - self._ordered_pairs

    # ------------------------------------------------------------------
    # freeze: hand the clock table to a batch-API oracle
    # ------------------------------------------------------------------
    def freeze(self, execution: Execution) -> HappenedBeforeOracle:
        """The batch oracle over *execution*, answering from the streamed clocks.

        *execution* must be the completed execution whose events were
        streamed in (same per-process counts).  Nothing is built here: the
        clock table is shared, not copied, and the frozen oracle is the
        object ``HappenedBeforeOracle(execution)`` builds, on the kernel
        :func:`repro.core.backend.resolve_backend` selects.
        """
        if execution.n_processes != self._n:
            raise ValueError(
                f"execution has {execution.n_processes} processes, "
                f"oracle was built for {self._n}"
            )
        for p, want in enumerate(execution.event_counts()):
            have = self.event_count(p)
            if have != want:
                raise ValueError(
                    f"process {p}: oracle saw {have} events, "
                    f"execution has {want}"
                )
        return HappenedBeforeOracle._from_clocks(execution, self._clocks)


def as_batch_oracle(
    oracle: AnyOracle, execution: Execution
) -> HappenedBeforeOracle:
    """Coerce either oracle flavor to the batch one.

    Batch oracles pass through; incremental oracles are frozen against
    *execution*.  Only the exhaustive validators, which read bit rows, need
    it; point, causal-past and cut queries take either class as it is.
    """
    if isinstance(oracle, IncrementalHBOracle):
        return oracle.freeze(execution)
    return oracle


def incremental_from_execution(
    execution: Execution,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> IncrementalHBOracle:
    """Convenience: stream a completed execution into a fresh oracle."""
    return IncrementalHBOracle(
        execution.n_processes, registry=registry
    ).ingest(execution)
