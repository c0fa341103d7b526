"""Ground-truth happened-before oracle: one clock table, bit rows decoded from it.

The oracle derives Lamport's happened-before relation [Lamport 1978] from an
:class:`~repro.core.execution.Execution` by the Fidge–Mattern max-merge that the
``vector`` scheme also runs.  Every scheme is validated against it; the reference
independent of both is ``_closure`` in ``tests/clocks/test_validate_budget.py``,
the transitive closure of program order and send → receive.

**The clock table** — every event's full-length (``n``-entry) vector clock
(Fidge 1991, Mattern 1988), one flat ``array('i')`` per process with the
clock of event ``(p, k)`` at ``[(k-1)*n, k*n)``.  It characterises the
relation, so everything but the exhaustive validators reads nothing else::

    e -> f   iff   e != f  and  vc_f[e.proc] >= e.index

``happened_before`` / ``vector_clock`` are index operations on it,
``causal_past`` is one prefix per process and
``relation_counts`` sums it (an event's strict past has ``sum(vc) - 1``
members).  There is one builder of the table, the streaming oracle's
max-merge recurrence (:meth:`repro.core.incremental.IncrementalHBOracle._append`):
the public constructor runs ``delivery_order()`` through it, and
:meth:`~repro.core.incremental.IncrementalHBOracle.freeze` hands over the
table it already streamed.  Either way the oracle builds nothing else.

**The bit rows** — events are assigned dense indices (process-major, the
order of :meth:`Execution.all_events`, so an index is arithmetic on
``(proc, index)``), and each event's *strict causal past* is a bitmask::

    past[f] = bits of every e with e -> f

A row is a pure function of the event's clock: restricted to process
``q``'s block of bits it is the first ``vc_f[q]`` bits (``f``'s own entry
minus one, the past being strict).  The rows are the exhaustive validators'
substrate — ``past_masks()`` / ``past_matrix()`` with ``event_order`` /
``index_of`` to name the bits — decoded on first read and kept, one decoder
per representation: ``past_masks()`` packs Python ints on any backend;
``past_matrix()`` is the same matrix as a contiguous ``(m, ceil(m/64))``
``uint64`` array (:func:`repro.core.npkernel.past_matrix_from_clocks`) on
the ``numpy`` backend and ``None`` on ``pure``.  The backend is chosen from
the event count by :func:`repro.core.backend.resolve_backend`; both
decoders produce byte-identical rows.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate, compress
from operator import ne
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.core.backend import resolve_backend
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.obs.metrics import MetricsRegistry, active_registry

#: per process, its events' vector clocks back to back in one ``array('i')``
ClockTable = List[array]


def past_masks_from_clocks(
    clocks: ClockTable, n: int, proc_base: Sequence[int]
) -> Tuple[int, ...]:
    """Every event's strict causal past as a packed int, process-major.

    Pasts only grow along a process, so each row is the previous one ORed
    with the prefix ``((1 << s) - 1) << proc_base[q]`` of every entry ``q``
    that moved (own entry minus one): local and send events move only
    their own entry.
    """
    rows: List[int] = []
    entries = range(n)
    for p, table in enumerate(clocks):
        mask = 0
        prev: Sequence[int] = [0] * n
        for k, off in enumerate(range(0, len(table), n)):
            vc = table[off : off + n]
            vc[p] = k
            for q in compress(entries, map(ne, vc, prev)):
                mask |= ((1 << vc[q]) - 1) << proc_base[q]
            rows.append(mask)
            prev = vc
    return tuple(rows)


class HappenedBeforeOracle:
    """O(1) happened-before queries over a fixed execution."""

    def __init__(
        self, execution: Execution, backend: Optional[str] = None
    ) -> None:
        from repro.core.incremental import incremental_from_execution

        # a registry of its own: a batch build adds nothing to the active one
        streamed = incremental_from_execution(
            execution, registry=MetricsRegistry()
        )
        self._setup(execution, backend, streamed._clocks)

    @classmethod
    def _from_clocks(
        cls, execution: Execution, clocks: ClockTable
    ) -> "HappenedBeforeOracle":
        """``IncrementalHBOracle.freeze``'s construction path: adopt the
        streamed clock table (shared, not copied)."""
        self = cls.__new__(cls)
        self._setup(execution, None, clocks)
        return self

    def _setup(
        self,
        execution: Execution,
        backend: Optional[str],
        clocks: ClockTable,
    ) -> None:
        self._execution = execution
        self._n = execution.n_processes
        self._counts: Tuple[int, ...] = tuple(execution.event_counts())
        #: first dense index of each process's events (the per-process block)
        self._proc_base: Tuple[int, ...] = tuple(
            accumulate(self._counts, initial=0)
        )[:-1]
        #: which decoder ``past_matrix`` runs ("pure": none, "numpy")
        self.backend: str = resolve_backend(sum(self._counts), backend)
        self._clocks = clocks
        #: the decoded rows, each built on first read
        self._past: Optional[Tuple[int, ...]] = None
        self._mat: Optional[Any] = None
        active_registry().gauge("oracle.backend", backend=self.backend).set(1)

    @property
    def execution(self) -> Execution:
        return self._execution

    @property
    def n_processes(self) -> int:
        return self._n

    def event_count(self, proc: int) -> int:
        """Events at *proc* (the streaming oracle's accessor of that name)."""
        return self._counts[proc]

    # ------------------------------------------------------------------
    # bitset surface: decoded from the clock table on first read
    # ------------------------------------------------------------------
    @cached_property
    def event_order(self) -> Tuple[EventId, ...]:
        """The dense indexing used by the masks (process-major)."""
        return tuple(ev.eid for ev in self._execution.all_events())

    def index_of(self, eid: EventId) -> int:
        """Dense index of *eid* in :attr:`event_order`."""
        p = eid.proc
        if not (0 <= p < self._n and 1 <= eid.index <= self._counts[p]):
            raise KeyError(eid)
        return self._proc_base[p] + eid.index - 1

    def past_masks(self) -> Tuple[int, ...]:
        """All strict causal-past rows: bit ``i`` of row ``j`` is set iff
        ``event_order[i] -> event_order[j]``.  Packed ints on either
        backend; validation on a numpy oracle reads :meth:`past_matrix`
        instead."""
        if self._past is None:
            self._past = past_masks_from_clocks(
                self._clocks, self._n, self._proc_base
            )
        return self._past

    def past_matrix(self) -> Optional[Any]:
        """The numpy ``(m, ceil(m/64))`` uint64 past matrix, or ``None``
        on the pure backend.  Rows little-endian-match :meth:`past_masks`;
        callers must treat it as read-only."""
        if self._mat is None and self.backend == "numpy":
            from repro.core import npkernel

            self._mat = npkernel.past_matrix_from_clocks(
                self._clocks, self._counts
            )
        return self._mat

    # ------------------------------------------------------------------
    # point queries: the clock table, never the rows
    # ------------------------------------------------------------------
    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        self.index_of(eid)  # KeyError for events outside the execution
        off = (eid.index - 1) * self._n
        return tuple(self._clocks[eid.proc][off : off + self._n])

    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Whether ``e -> f`` (strict: ``e != f`` and e causally precedes f)."""
        n = self._n
        counts = self._counts
        ep, ei, fp, fi = e.proc, e.index, f.proc, f.index
        # index_of's bounds, inlined: this is validate_sampled's inner loop
        # (an EventId already guarantees proc >= 0 and index >= 1)
        if not (ep < n and fp < n and ei <= counts[ep] and fi <= counts[fp]):
            raise KeyError(e if e not in self._execution else f)
        if ep == fp:
            return ei < fi
        return self._clocks[fp][(fi - 1) * n + ep] >= ei

    # ------------------------------------------------------------------
    def causal_past(self, f: EventId) -> Set[EventId]:
        """All events ``e`` with ``e -> f`` (excluding *f* itself)."""
        # a past is one prefix per process; f's own prefix stops short of f
        order = self.event_order
        out: Set[EventId] = set()
        for p, seen in enumerate(self.vector_clock(f)):
            base = self._proc_base[p]
            out.update(order[base : base + seen - (p == f.proc)])
        return out

    def relation_counts(self) -> Tuple[int, int]:
        """Return ``(ordered_pairs, concurrent_unordered_pairs)``.

        ``ordered_pairs`` counts ordered pairs ``(e, f)`` with ``e -> f``:
        the sum over events of ``sum(vc) - 1``, the size of each strict
        past.  Happened-before is antisymmetric, so
        ``concurrent_unordered_pairs`` is the complement among all
        unordered pairs.
        """
        m = sum(self._counts)
        ordered = sum(map(sum, self._clocks)) - m
        return ordered, m * (m - 1) // 2 - ordered
