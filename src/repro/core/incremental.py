"""Incremental happened-before oracle: streaming O(Δ) appends.

The batch :class:`~repro.core.happened_before.HappenedBeforeOracle` is
constructed over a *completed* execution, so every online consumer — the
Section-6 application detectors, the simulator's invariant checks — used to
rebuild the full O(|E|²)-bit causal-past matrix from scratch whenever it
needed an answer mid-run.  :class:`IncrementalHBOracle` maintains the same
packed-int causal-past rows *as events are appended*:

- ``append_local`` / ``append_send`` extend one row by copying the process's
  running mask (amortized O(row-words) big-int work);
- ``append_receive`` additionally ORs in the matching send's row — the same
  word-parallel recurrence the batch kernel uses, applied once per event
  instead of once per rebuild;
- an event's bit index (its *slot*) is its arrival rank, so no append ever
  re-indexes or rebuilds existing rows.

There is **one** row-construction path, :meth:`IncrementalHBOracle._append`:
every append finalizes its row, its vector clock and its metrics at once.
Rows are deliberately not buffered or built with numpy: measured on the
benchmark's ``sim-stream`` workload both lose to this loop, and a dense
``(slots, slots/64)`` matrix grows with the run where Python-int rows are
only as long as their highest set bit (EXPERIMENTS.md, *Columnar core*,
has the numbers and the one input shape on which vectorizing does win).

Because causal pasts are append-monotone (appending an event never changes
the row of an existing event), every answer the oracle gives online is
*final* — exactly why conflict/predicate detection can act on it while the
execution is still running.

**Feeding from a columnar store.**  A producer that writes a
:class:`~repro.core.colstore.EventStore` need not mirror each event into
the oracle: :meth:`~IncrementalHBOracle.bind_store` attaches the store,
and :meth:`~IncrementalHBOracle.flush` — called by every query path and by
``freeze`` — drains the rows appended since the last drain.
:meth:`~IncrementalHBOracle.sync_store` is the explicit form (``upto`` caps
the batch).  Draining reads the store's scalar accessors and feeds the
same ``_append``, so no ``Event`` objects are materialized and slot
layout, rows and metric totals equal the per-event feed's.  With no store
bound, ``flush`` does nothing.

The ``batch`` constructor keyword is accepted and has no effect; it is
still spelled in the signature because the benchmark harness under
``perf/`` passes it.

On top of the rows sits a memoized batch-query layer: ``precedes`` /
``concurrent`` / ``causal_past`` / ``causal_frontier`` / ``relation_counts``
results are cached in a small LRU that is invalidated wholesale whenever the
append watermark moves, so repeated queries between appends (the detector
polling pattern) cost one dict hit.

The streamed rows answer mid-run queries.  ``freeze(execution)`` is the
batch build plus the streamed vector clocks: it constructs a
:class:`HappenedBeforeOracle` over the completed execution on whichever
kernel its size selects (:func:`repro.core.backend.resolve_backend`) and
hands over the clocks, so the result is byte-identical to one built from
scratch — pinned by ``tests/core/test_incremental_oracle.py``.

Observability (:mod:`repro.obs`): ``oracle.appends``, ``oracle.append_words``
(big-int words touched by appends), and ``oracle.query_cache_hit`` /
``oracle.query_cache_miss`` counters on the registry active at construction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.colstore import KIND_RECEIVE, EventStore
from repro.core.events import Event, EventId, ProcessId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.obs.metrics import MetricsRegistry, active_registry

#: sentinel distinguishing "cached None" from "absent"
_MISS = object()

#: either oracle flavor — helpers below coerce to the batch one when needed
AnyOracle = Union[HappenedBeforeOracle, "IncrementalHBOracle"]


class IncrementalHBOracle:
    """Happened-before oracle maintained event-by-event while a run streams.

    Parameters
    ----------
    n_processes:
        Number of processes (fixed up front, like every clock algorithm).
    cache_size:
        Maximum entries in the memoized query LRU.
    registry:
        Metrics registry for the ``oracle.*`` instruments; defaults to the
        registry active at construction time.
    batch:
        Accepted and without effect: every append finalizes its row at
        once, and :meth:`flush` only drains a bound store.
    """

    def __init__(
        self,
        n_processes: int,
        *,
        cache_size: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        batch: bool = False,  # ignored; perf/workloads/sim.py passes it
    ) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self._n = n_processes
        #: strict causal-past bitmask per slot (slot = arrival rank)
        self._rows: List[int] = []
        #: slot -> owning EventId
        self._slot_eid: List[EventId] = []
        #: per process: slot of each of its events, in index order
        self._slots: List[List[int]] = [[] for _ in range(n_processes)]
        #: running mask per process: strict past of its *next* event
        self._proc_mask: List[int] = [0] * n_processes
        self._proc_clock: List[List[int]] = [
            [0] * n_processes for _ in range(n_processes)
        ]
        self._vc: Dict[EventId, Tuple[int, ...]] = {}
        #: running popcount of all rows — makes relation_counts O(1)
        self._ordered_pairs = 0
        # the bound EventStore (drained by flush) and rows ingested so far
        self._src_store: Optional[EventStore] = None
        self._synced_rows = 0
        self._watermark = 0
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._cache_size = cache_size
        self._cache_watermark = 0
        reg = registry if registry is not None else active_registry()
        self._m_appends = reg.counter("oracle.appends")
        self._m_append_words = reg.counter("oracle.append_words")
        self._m_cache_hit = reg.counter("oracle.query_cache_hit")
        self._m_cache_miss = reg.counter("oracle.query_cache_miss")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_processes(self) -> int:
        return self._n

    @property
    def n_events(self) -> int:
        """Events appended so far."""
        return self._watermark

    @property
    def watermark(self) -> int:
        """Monotone append counter; bumping it invalidates the query cache."""
        return self._watermark

    def event_count(self, proc: ProcessId) -> int:
        """Events appended at *proc* so far."""
        return len(self._slots[proc])

    def __contains__(self, eid: EventId) -> bool:
        return 0 <= eid.proc < self._n and eid.index <= len(self._slots[eid.proc])

    def _slot_of(self, eid: EventId) -> int:
        if not 0 <= eid.proc < self._n or not 1 <= eid.index <= len(
            self._slots[eid.proc]
        ):
            raise KeyError(f"{eid} has not been appended")
        return self._slots[eid.proc][eid.index - 1]

    # ------------------------------------------------------------------
    # appends — the O(Δ) streaming surface
    # ------------------------------------------------------------------
    def _append(
        self,
        eid: EventId,
        extra_mask: int = 0,
        send_vc: Optional[Tuple[int, ...]] = None,
    ) -> int:
        p = eid.proc
        if not 0 <= p < self._n:
            raise ValueError(f"process {p} out of range [0, {self._n})")
        slots = self._slots[p]
        if eid.index != len(slots) + 1:
            raise ValueError(
                f"out-of-order append: expected index {len(slots) + 1} "
                f"at p{p}, got {eid.index}"
            )
        slot = self._watermark
        mask = self._proc_mask[p] | extra_mask
        clock = self._proc_clock[p]
        if send_vc is not None:
            for k in range(self._n):
                if send_vc[k] > clock[k]:
                    clock[k] = send_vc[k]
        clock[p] += 1
        self._rows.append(mask)
        self._slot_eid.append(eid)
        slots.append(slot)
        self._proc_mask[p] = mask | (1 << slot)
        self._vc[eid] = tuple(clock)
        self._ordered_pairs += mask.bit_count()
        self._watermark += 1
        self._m_appends.inc()
        self._m_append_words.inc((mask.bit_length() >> 6) + 1)
        return slot

    def append_local(self, eid: EventId) -> None:
        """Record a local event.  Must be the next index at its process."""
        self._append(eid)

    def append_send(self, eid: EventId) -> None:
        """Record a send event (causally identical to a local step)."""
        self._append(eid)

    def append_receive(self, eid: EventId, send: EventId) -> None:
        """Record the receive matching the already-appended *send*."""
        sslot = self._slot_of(send)
        extra = self._rows[sslot] | (1 << sslot)
        self._append(eid, extra_mask=extra, send_vc=self._vc[send])

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
        order yields identical rows).  Returns ``self`` for chaining.
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
        :meth:`sync_store`.  ``n_events`` / ``event_count`` /
        ``__contains__`` reflect *synced* rows only, so call :meth:`flush`
        first when reading them directly.
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
        start = self._synced_rows
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
        self._synced_rows = stop
        return stop - start

    def flush(self) -> None:
        """Drain the rows a bound store has gained since the last drain.

        Every query path calls this implicitly; it is public so callers
        with latency deadlines can pick their own amortization points.
        No-op when no store is bound or nothing is new.
        """
        store = self._src_store
        if store is not None and store.n_events > self._synced_rows:
            self.sync_store(store)

    # ------------------------------------------------------------------
    # raw point queries (uncached: each is a bit test)
    # ------------------------------------------------------------------
    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Whether ``e -> f``.  Final the moment both events are appended."""
        self.flush()
        return bool(self._rows[self._slot_of(f)] >> self._slot_of(e) & 1)

    def leq(self, e: EventId, f: EventId) -> bool:
        """Whether ``e == f`` or ``e -> f``."""
        return e == f or self.happened_before(e, f)

    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        vc = self._vc.get(eid)
        if vc is None:
            self.flush()
            vc = self._vc[eid]  # raises KeyError for unknown events
        return vc

    # ------------------------------------------------------------------
    # memoized batch-query layer
    # ------------------------------------------------------------------
    def _cached(self, key: tuple, compute):
        if self._cache_watermark != self._watermark:
            # every append can extend causal pasts — drop the whole cache
            self._cache.clear()
            self._cache_watermark = self._watermark
        hit = self._cache.get(key, _MISS)
        if hit is not _MISS:
            self._cache.move_to_end(key)
            self._m_cache_hit.inc()
            return hit
        self._m_cache_miss.inc()
        value = compute()
        self._cache[key] = value
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return value

    def precedes(self, e: EventId, f: EventId) -> bool:
        """Memoized ``e -> f`` (the detector polling pattern hits cache)."""
        return self._cached(
            ("hb", e, f), lambda: self.happened_before(e, f)
        )

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """Whether *e* and *f* are distinct and causally unordered."""
        key = ("conc", e, f) if e <= f else ("conc", f, e)
        return self._cached(
            key,
            lambda: e != f
            and not self.happened_before(e, f)
            and not self.happened_before(f, e),
        )

    def causal_past(self, f: EventId) -> Set[EventId]:
        """All appended events ``e`` with ``e -> f``."""
        return set(self._cached(("past", f), lambda: self._decode_past(f)))

    def _decode_past(self, f: EventId) -> Tuple[EventId, ...]:
        self.flush()
        return tuple(self._events_from_mask(self._rows[self._slot_of(f)]))

    def causal_frontier(self, events: Iterable[EventId]) -> List[EventId]:
        """Maximal events of the downward closure of *events*.

        The smallest causally-closed set containing *events* is a union of
        causal pasts; its maximal elements — the frontier a consistent
        snapshot would cut along — are the members not in any member's
        strict past (one row-OR per seed event, word-parallel).
        """
        key = ("frontier", tuple(sorted(events)))
        return list(self._cached(key, lambda: self._compute_frontier(key[1])))

    def _compute_frontier(
        self, events: Tuple[EventId, ...]
    ) -> Tuple[EventId, ...]:
        self.flush()
        rows = self._rows
        closure = 0
        for f in events:
            slot = self._slot_of(f)
            closure |= rows[slot] | (1 << slot)
        dominated = 0
        mask = closure
        while mask:
            lsb = mask & -mask
            dominated |= rows[lsb.bit_length() - 1]
            mask ^= lsb
        return tuple(self._events_from_mask(closure & ~dominated))

    def relation_counts(self) -> Tuple[int, int]:
        """``(ordered_pairs, concurrent_unordered_pairs)`` so far.

        The ordered-pair popcount is maintained at append time, so this is
        O(1) arithmetic — no row scan.
        """
        self.flush()
        m = self._watermark
        return self._ordered_pairs, m * (m - 1) // 2 - self._ordered_pairs

    def _events_from_mask(self, mask: int) -> List[EventId]:
        """Decode a slot mask, ordered by (process, index) for determinism."""
        slot_eid = self._slot_eid
        out: List[EventId] = []
        while mask:
            lsb = mask & -mask
            out.append(slot_eid[lsb.bit_length() - 1])
            mask ^= lsb
        out.sort()
        return out

    def cache_info(self) -> Dict[str, int]:
        """Current cache occupancy (hits/misses live on the registry)."""
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "watermark": self._cache_watermark,
        }

    # ------------------------------------------------------------------
    # freeze: the batch build, plus the streamed vector clocks
    # ------------------------------------------------------------------
    def freeze(
        self, execution: Execution, backend: Optional[str] = None
    ) -> HappenedBeforeOracle:
        """The batch oracle over *execution*, with the streamed vector clocks.

        *execution* must be the completed execution whose events were
        streamed in (same per-process counts).  The rows are built by the
        batch constructor, on whichever kernel *backend* or
        :func:`repro.core.backend.resolve_backend` selects for the size;
        the incrementally maintained vector clocks are handed over as-is.
        The result is indistinguishable from a from-scratch build:
        identical ``past_masks()``, ``event_order``, vector clocks, and
        query answers.
        """
        if execution.n_processes != self._n:
            raise ValueError(
                f"execution has {execution.n_processes} processes, "
                f"oracle was built for {self._n}"
            )
        self.flush()  # also drains a bound store, so counts are current
        for p in range(self._n):
            have = len(self._slots[p])
            want = len(execution.events_at(p))
            if have != want:
                raise ValueError(
                    f"process {p}: oracle saw {have} events, "
                    f"execution has {want}"
                )
        oracle = HappenedBeforeOracle(execution, backend=backend)
        # the streamed clocks are byte-identical to a fresh computation
        # (pinned by the equivalence tests), so the numpy kernel never
        # has to derive them from its matrix
        oracle._vc = dict(self._vc)
        return oracle


def as_batch_oracle(
    oracle: AnyOracle, execution: Execution
) -> HappenedBeforeOracle:
    """Coerce either oracle flavor to the batch one.

    Batch oracles pass through; incremental oracles are frozen against
    *execution*.  This is what lets validation and application entry points
    accept whichever flavor the caller already has.
    """
    if isinstance(oracle, IncrementalHBOracle):
        return oracle.freeze(execution)
    return oracle


def incremental_from_execution(
    execution: Execution,
    *,
    cache_size: int = 1024,
    registry: Optional[MetricsRegistry] = None,
) -> IncrementalHBOracle:
    """Convenience: stream a completed execution into a fresh oracle."""
    oracle = IncrementalHBOracle(
        execution.n_processes,
        cache_size=cache_size,
        registry=registry,
    )
    return oracle.ingest(execution)
