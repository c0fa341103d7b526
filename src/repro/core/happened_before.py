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
to hold.  On the rows:

- ``causal_past`` / ``causal_future`` decode one row (futures come from one
  lazy reverse pass over the same order);
- exhaustive validation XORs them against a scheme's precedes-matrix;
- consistent-cut checks reduce to mask subset tests (see
  :mod:`repro.core.cuts`), because process-major indexing makes every cut a
  union of per-process contiguous bit ranges.

The row store has two interchangeable backends, chosen from the event
count by :func:`repro.core.backend.resolve_backend`: ``pure`` keeps packed
Python ints; ``numpy`` keeps the same matrix as a contiguous ``uint64``
array built by bulk row ops (:mod:`repro.core.npkernel`) and answers
``relation_counts`` / :func:`downward_closure` with whole-matrix vectorized
popcounts and ORs.  Both produce byte-identical rows; the pure backend is
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
from typing import Any, Iterable, Iterator, List, Optional, Set, Tuple

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
        #: strict causal-future bitmask per dense index (built lazily)
        self._future: Optional[List[int]] = None
        active_registry().gauge("oracle.backend", backend=self.backend).set(1)

    @property
    def execution(self) -> Execution:
        return self._execution

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

    def _ensure_future(self) -> List[int]:
        """Build the strict causal-future masks with one reverse pass.

        In ``delivery_order()`` every event precedes its immediate causal
        successors (the next event at its process; for sends, the matching
        receive), so walking the order backwards sees successors first.
        """
        if self._future is not None:
            return self._future
        ex = self._execution
        pos = self.index_of
        fut = [0] * sum(self._counts)
        for ev in reversed(ex.delivery_order()):
            mask = 0
            i = pos(ev.eid)
            if ev.index < self._counts[ev.proc]:  # next local event
                mask |= fut[i + 1] | (1 << (i + 1))
            if ev.is_send:
                recv = ex.receive_of(ev)
                if recv is not None:
                    j = pos(recv.eid)
                    mask |= fut[j] | (1 << j)
            fut[i] = mask
        self._future = fut
        return fut

    def _ensure_past(self) -> List[int]:
        """Packed-int rows, built (or unpacked from the matrix) once."""
        if self._past is None:
            if self.backend == "numpy":
                from repro.core import npkernel

                self._past = npkernel.matrix_to_rows(self.past_matrix())
            else:
                self._compute()
        return self._past

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

    def causal_past_mask(self, f: EventId) -> int:
        """Bitmask of ``{e : e -> f}`` over :attr:`event_order` indices."""
        return self._ensure_past()[self.index_of(f)]

    def causal_future_mask(self, e: EventId) -> int:
        """Bitmask of ``{f : e -> f}`` over :attr:`event_order` indices."""
        return self._ensure_future()[self.index_of(e)]

    def past_masks(self) -> Tuple[int, ...]:
        """All strict causal-past rows: bit ``i`` of row ``j`` is set iff
        ``event_order[i] -> event_order[j]``.

        On a numpy oracle this unpacks the whole matrix into Python ints
        and keeps them; validation does not call this on a numpy oracle
        (it compares :meth:`past_matrix` directly)."""
        return tuple(self._ensure_past())

    def past_matrix(self) -> Optional[Any]:
        """The numpy ``(m, ceil(m/64))`` uint64 past matrix, or ``None``
        on the pure backend.  Rows little-endian-match :meth:`past_masks`;
        callers must treat it as read-only."""
        if self._mat is None and self.backend == "numpy":
            from repro.core import npkernel

            self._mat = npkernel.bulk_past_matrix(self._execution)
        return self._mat

    def events_from_mask(self, mask: int) -> List[EventId]:
        """Decode a bitmask into the events it denotes, in dense order."""
        order = self.event_order
        out: List[EventId] = []
        while mask:
            lsb = mask & -mask
            out.append(order[lsb.bit_length() - 1])
            mask ^= lsb
        return out

    def cut_mask(self, cut: Tuple[int, ...]) -> int:
        """Bitmask of the events inside a cut (per-process prefix lengths).

        Process-major indexing makes each process's events one contiguous
        bit range, so a cut is a union of low-bit runs shifted into place.
        """
        if len(cut) != self._n:
            raise ValueError("cut length must equal the number of processes")
        mask = 0
        for p, k in enumerate(cut):
            if k < 0 or k > self._counts[p]:
                raise ValueError(f"cut[{p}]={k} out of range for process {p}")
            if k:
                mask |= ((1 << k) - 1) << self._proc_base[p]
        return mask

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
        return set(self.events_from_mask(self.causal_past_mask(f)))

    def causal_future(self, e: EventId) -> Set[EventId]:
        """All events ``f`` with ``e -> f``."""
        return set(self.events_from_mask(self.causal_future_mask(e)))

    def pairs(self) -> Iterator[Tuple[EventId, EventId]]:
        """All ordered pairs of distinct events (for exhaustive checks)."""
        ids = self.event_order
        for e in ids:
            for f in ids:
                if e != f:
                    yield e, f

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


def downward_closure(
    oracle: HappenedBeforeOracle, events: Iterable[EventId]
) -> Set[EventId]:
    """The smallest causally-closed set containing *events*.

    A set ``S`` is causally closed (a *consistent cut*, as a set of events)
    when ``f in S`` and ``e -> f`` imply ``e in S``.  Computed as one mask
    union per seed event — or, on the numpy backend, as one whole-matrix
    row gather + OR-reduction.
    """
    seeds = list(events)
    mat = oracle.past_matrix()
    if mat is not None and seeds:
        from repro.core import npkernel

        idx = [oracle.index_of(f) for f in seeds]
        mask = npkernel.union_rows_int(mat, idx)
        for i in idx:
            mask |= 1 << i
    else:
        mask = 0
        for f in seeds:
            mask |= oracle.causal_past_mask(f) | (1 << oracle.index_of(f))
    return set(oracle.events_from_mask(mask))
