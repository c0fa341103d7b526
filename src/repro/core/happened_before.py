"""Ground-truth happened-before oracle: vector clocks, bit rows on demand.

The oracle derives Lamport's happened-before relation [Lamport 1978] directly
from an :class:`~repro.core.execution.Execution`, independently of any clock
algorithm under test.  It is the reference against which every timestamping
scheme in the library is validated.

It holds two views of the relation.

**The clock table** — every event's full-length (``n``-entry) vector clock
(Fidge 1991, Mattern 1988), one flat ``array('i')`` per process with the
clock of event ``(p, k)`` at ``[(k-1)*n, k*n)``.  It characterises the
relation, so the point queries read nothing else::

    e -> f   iff   e != f  and  vc_f[e.proc] >= e.index

``happened_before`` / ``leq`` / ``concurrent`` / ``vector_clock`` are index
operations on it, O(|E|·n) integers in all.

**The bit rows** — events are assigned dense indices (process-major, the
order of :meth:`Execution.all_events`, so an index is arithmetic on
``(proc, index)``), and each event's *strict causal past* is a bitmask::

    past[f] = bits of every e with e -> f

The recurrence is word-parallel — a receive's mask is the union of its local
predecessor's mask and the matching send's mask (plus their own bits) — so
the whole matrix costs O(|E|) unions of |E|/64 words each, and O(|E|²) bits
to hold.  Nothing *queries* the rows: a causal past is one prefix per
process and a cut is a vector clock (:mod:`repro.core.cuts`), so both come
off the table.  The rows are the exhaustive validators' substrate —
``past_masks()`` / ``past_matrix()`` with ``event_order`` / ``index_of`` to
name the bits — which XOR them against a scheme's precedes-matrix.

The row store has two interchangeable backends, chosen from the event
count by :func:`repro.core.backend.resolve_backend`: ``pure`` keeps packed
Python ints; ``numpy`` keeps the same matrix as a contiguous ``uint64``
array built by bulk row ops (:mod:`repro.core.npkernel`) and answers
``relation_counts`` with a whole-matrix vectorized popcount.  Both produce byte-identical rows; the pure backend is
the always-available reference.

Who builds what: the public constructor is the batch build and is eager —
it builds the rows at once (and, on the pure kernel, the clock table in the
same pass; on numpy the table is derived from the matrix when first read).
:meth:`repro.core.incremental.IncrementalHBOracle.freeze` hands over the
table it streamed and builds nothing; such an oracle materialises its rows,
with the same kernel, the first time someone asks it for bits.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate
from typing import Any, List, Optional, Set, Tuple

from repro.core.backend import resolve_backend
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.obs.metrics import active_registry

#: per process, its events' vector clocks back to back in one ``array('i')``
ClockTable = List[array]


class HappenedBeforeOracle:
    """O(1) happened-before queries over a fixed execution."""

    def __init__(
        self, execution: Execution, backend: Optional[str] = None
    ) -> None:
        self._setup(execution, backend, None)
        if self.backend == "numpy":
            self.past_matrix()
        else:
            self._compute()

    @classmethod
    def _from_clocks(
        cls, execution: Execution, clocks: ClockTable, backend: Optional[str]
    ) -> "HappenedBeforeOracle":
        """``IncrementalHBOracle.freeze``'s construction path: adopt the
        streamed clock table (shared, not copied) and build no rows."""
        self = cls.__new__(cls)
        self._setup(execution, backend, clocks)
        return self

    def _setup(
        self,
        execution: Execution,
        backend: Optional[str],
        clocks: Optional[ClockTable],
    ) -> None:
        self._execution = execution
        self._n = execution.n_processes
        self._counts: Tuple[int, ...] = tuple(execution.event_counts())
        #: first dense index of each process's events (the per-process block)
        self._proc_base: Tuple[int, ...] = tuple(
            accumulate(self._counts, initial=0)
        )[:-1]
        #: which kernel holds the rows ("pure" or "numpy")
        self.backend: str = resolve_backend(sum(self._counts), backend)
        #: None only on a numpy batch build until first read (see _table)
        self._clocks = clocks
        #: numpy (m, ceil(m/64)) uint64 past matrix (numpy backend only)
        self._mat: Optional[Any] = None
        #: strict causal-past bitmask per dense index
        self._past: Optional[List[int]] = None
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

    def _compute(self) -> None:
        """The pure kernel: one pass over ``delivery_order()`` fills the
        rows and, unless a streamed table was handed over, the clocks."""
        ex = self._execution
        n = self._n
        base = self._proc_base
        past = [0] * sum(self._counts)
        fill_clocks = self._clocks is None
        tables: ClockTable = [array("i") for _ in range(n)]
        proc_clock: List[List[int]] = [[0] * n for _ in range(n)]
        #: running mask per process: strict past of that process's *next* event
        proc_mask = [0] * n
        for ev in ex.delivery_order():
            p = ev.proc
            mask = proc_mask[p]
            if ev.is_receive:
                send = ex.send_of(ev).eid
                sp = base[send.proc] + send.index - 1
                mask |= past[sp] | (1 << sp)
                if fill_clocks:
                    clock = proc_clock[p]
                    off = (send.index - 1) * n
                    sent = tables[send.proc][off : off + n]
                    for k, seen in enumerate(sent):
                        if seen > clock[k]:
                            clock[k] = seen
            i = base[p] + ev.index - 1
            past[i] = mask
            proc_mask[p] = mask | (1 << i)
            if fill_clocks:
                proc_clock[p][p] += 1
                tables[p].fromlist(proc_clock[p])
        self._past = past
        if fill_clocks:
            self._clocks = tables

    def _table(self) -> ClockTable:
        """The clock table; a numpy batch build derives it from its matrix
        on first read, every other path already holds it."""
        if self._clocks is None:
            from repro.core import npkernel

            self._clocks = npkernel.vector_clocks_from_matrix(
                self._mat, self._counts
            )
        return self._clocks

    # ------------------------------------------------------------------
    # bitset kernel surface
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
        ``event_order[i] -> event_order[j]``.

        On a numpy oracle this unpacks the whole matrix into Python ints
        and keeps them; validation does not call this on a numpy oracle
        (it compares :meth:`past_matrix` directly)."""
        if self._past is None:
            if self.backend == "numpy":
                from repro.core import npkernel

                self._past = npkernel.matrix_to_rows(self.past_matrix())
            else:
                self._compute()
        return tuple(self._past)

    def past_matrix(self) -> Optional[Any]:
        """The numpy ``(m, ceil(m/64))`` uint64 past matrix, or ``None``
        on the pure backend.  Rows little-endian-match :meth:`past_masks`;
        callers must treat it as read-only."""
        if self._mat is None and self.backend == "numpy":
            from repro.core import npkernel

            self._mat = npkernel.bulk_past_matrix(self._execution)
        return self._mat

    # ------------------------------------------------------------------
    # point queries: the clock table, never the rows
    # ------------------------------------------------------------------
    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        self.index_of(eid)  # KeyError for events outside the execution
        off = (eid.index - 1) * self._n
        return tuple(self._table()[eid.proc][off : off + self._n])

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
        return self._table()[fp][(fi - 1) * n + ep] >= ei

    def leq(self, e: EventId, f: EventId) -> bool:
        """Whether ``e == f`` or ``e -> f``."""
        return e == f or self.happened_before(e, f)

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """Whether *e* and *f* are distinct and causally unordered."""
        return (
            not self.happened_before(e, f)
            and not self.happened_before(f, e)
            and e != f
        )

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

        ``ordered_pairs`` counts ordered pairs ``(e, f)`` with ``e -> f``;
        ``concurrent_unordered_pairs`` counts unordered concurrent pairs.
        Happened-before is antisymmetric, so the former is the popcount of
        the causal-past matrix where there is one — and otherwise the sum
        over events of ``sum(vc) - 1``, the size of each strict past — and
        the latter is the complement among all unordered pairs.
        """
        m = sum(self._counts)
        if self._mat is not None:
            from repro.core import npkernel

            ordered = npkernel.ordered_pair_count(self._mat)
        else:
            ordered = sum(map(sum, self._table())) - m
        return ordered, m * (m - 1) // 2 - ordered

