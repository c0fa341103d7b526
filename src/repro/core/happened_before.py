"""Ground-truth happened-before oracle, backed by a bitset kernel.

The oracle derives Lamport's happened-before relation [Lamport 1978] directly
from an :class:`~repro.core.execution.Execution`, independently of any clock
algorithm under test.  It is the reference against which every timestamping
scheme in the library is validated.

Implementation: events are assigned dense indices (process-major, the order
of :meth:`Execution.all_events`), and one causally consistent pass over
``delivery_order()`` computes, per event, its *strict causal past* as a
packed Python-int bitmask::

    past[f] = bits of every e with e -> f

The recurrence is word-parallel — a receive's mask is the union of its local
predecessor's mask and the matching send's mask (plus their own bits) — so
the whole matrix costs O(|E|) big-int unions of |E|/64 words each.  On top
of the rows:

- ``happened_before(e, f)`` is a single bit test;
- ``causal_past`` / ``causal_future`` decode one row (futures come from one
  lazy reverse pass over the same order);
- ``relation_counts`` is ``int.bit_count()`` over the rows;
- consistent-cut checks reduce to mask subset tests (see
  :mod:`repro.core.cuts`), because process-major indexing makes every cut a
  union of per-process contiguous bit ranges.

Full-length (``n``-entry) vector clocks are still computed in the same pass
— they remain the textbook characterization (Fidge 1991, Mattern 1988) used
by :meth:`vector_clock` consumers and by the property tests that
cross-check the bitset kernel against the vector-clock definition::

    e -> f   iff   vc_e[e.proc] <= vc_f[e.proc]

The row store has two interchangeable backends, chosen from the event
count by :func:`repro.core.backend.resolve_backend`: ``pure`` keeps the
packed Python ints described above; ``numpy`` keeps the same matrix as a
contiguous ``uint64`` array built by bulk row ops
(:mod:`repro.core.npkernel`) and answers ``relation_counts`` /
:func:`downward_closure` with whole-matrix vectorized popcounts and ORs.
Both produce byte-identical rows; the pure backend is the always-available
reference.  This constructor is also the only freeze:
:meth:`repro.core.incremental.IncrementalHBOracle.freeze` calls it and
hands over the vector clocks it streamed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.backend import resolve_backend
from repro.core.events import Event, EventId
from repro.core.execution import Execution
from repro.obs.metrics import active_registry


class HappenedBeforeOracle:
    """O(1) happened-before queries over a fixed execution."""

    def __init__(
        self, execution: Execution, backend: Optional[str] = None
    ) -> None:
        self._execution = execution
        #: dense event indexing: process-major, index order within a process
        self._order: Tuple[EventId, ...] = tuple(
            ev.eid for ev in execution.all_events()
        )
        self._pos: Dict[EventId, int] = {
            eid: i for i, eid in enumerate(self._order)
        }
        #: first dense index of each process's events (the per-process block)
        self._proc_base: Tuple[int, ...] = self._compute_proc_bases()
        #: strict causal-future bitmask per dense index (built lazily)
        self._future: Optional[List[int]] = None
        #: which kernel holds the rows ("pure" or "numpy")
        self.backend: str = resolve_backend(len(self._order), backend)
        #: numpy (m, ceil(m/64)) uint64 past matrix (numpy backend only)
        self._mat: Optional[Any] = None
        if self.backend == "numpy":
            from repro.core import npkernel

            self._mat = npkernel.bulk_past_matrix(execution)
            # packed-int rows and vector clocks materialize lazily from
            # the matrix, only for consumers that ask for them
            self._past: Optional[List[int]] = None
            self._vc: Optional[Dict[EventId, Tuple[int, ...]]] = None
        else:
            self._vc = {}
            #: strict causal-past bitmask per dense index
            self._past = [0] * len(self._order)
            self._compute()
        active_registry().gauge("oracle.backend", backend=self.backend).set(1)

    @property
    def execution(self) -> Execution:
        return self._execution

    def _compute_proc_bases(self) -> Tuple[int, ...]:
        bases = []
        offset = 0
        for p in range(self._execution.n_processes):
            bases.append(offset)
            offset += len(self._execution.events_at(p))
        return tuple(bases)

    def _compute(self) -> None:
        ex = self._execution
        n = ex.n_processes
        pos = self._pos
        past = self._past
        vc = self._vc
        assert past is not None and vc is not None  # pure backend only
        proc_clock: List[List[int]] = [[0] * n for _ in range(n)]
        #: running mask per process: strict past of that process's *next* event
        proc_mask = [0] * n
        for ev in ex.delivery_order():
            p = ev.proc
            clock = proc_clock[p]
            mask = proc_mask[p]
            if ev.is_receive:
                send_eid = ex.send_of(ev).eid
                sp = pos[send_eid]
                mask |= past[sp] | (1 << sp)
                send_vc = vc[send_eid]
                for k in range(n):
                    if send_vc[k] > clock[k]:
                        clock[k] = send_vc[k]
            clock[p] += 1
            i = pos[ev.eid]
            past[i] = mask
            proc_mask[p] = mask | (1 << i)
            vc[ev.eid] = tuple(clock)

    def _ensure_future(self) -> List[int]:
        """Build the strict causal-future masks with one reverse pass.

        In ``delivery_order()`` every event precedes its immediate causal
        successors (the next event at its process; for sends, the matching
        receive), so walking the order backwards sees successors first.
        """
        if self._future is not None:
            return self._future
        ex = self._execution
        pos = self._pos
        fut = [0] * len(self._order)
        for ev in reversed(ex.delivery_order()):
            mask = 0
            at_proc = ex.events_at(ev.proc)
            if ev.index < len(at_proc):  # next local event (1-based index)
                j = pos[at_proc[ev.index].eid]
                mask |= fut[j] | (1 << j)
            if ev.is_send:
                recv = ex.receive_of(ev)
                if recv is not None:
                    j = pos[recv.eid]
                    mask |= fut[j] | (1 << j)
            fut[pos[ev.eid]] = mask
        self._future = fut
        return fut

    def _ensure_past(self) -> List[int]:
        """Packed-int rows, materialized once from the matrix if needed."""
        if self._past is None:
            from repro.core import npkernel

            self._past = npkernel.matrix_to_rows(self._mat)
        return self._past

    def _ensure_vc(self) -> Dict[EventId, Tuple[int, ...]]:
        """Vector clocks, materialized once from the matrix if needed."""
        if self._vc is None:
            from repro.core import npkernel

            ex = self._execution
            counts = [
                len(ex.events_at(p)) for p in range(ex.n_processes)
            ]
            clocks = npkernel.vector_clocks_from_matrix(self._mat, counts)
            self._vc = {
                eid: tuple(clocks[i]) for i, eid in enumerate(self._order)
            }
        return self._vc

    # ------------------------------------------------------------------
    # bitset kernel surface
    # ------------------------------------------------------------------
    @property
    def event_order(self) -> Tuple[EventId, ...]:
        """The dense indexing used by the masks (process-major)."""
        return self._order

    def index_of(self, eid: EventId) -> int:
        """Dense index of *eid* in :attr:`event_order`."""
        return self._pos[eid]

    def causal_past_mask(self, f: EventId) -> int:
        """Bitmask of ``{e : e -> f}`` over :attr:`event_order` indices."""
        return self._ensure_past()[self._pos[f]]

    def causal_future_mask(self, e: EventId) -> int:
        """Bitmask of ``{f : e -> f}`` over :attr:`event_order` indices."""
        return self._ensure_future()[self._pos[e]]

    def past_masks(self) -> Tuple[int, ...]:
        """All strict causal-past rows: bit ``i`` of row ``j`` is set iff
        ``event_order[i] -> event_order[j]``."""
        return tuple(self._ensure_past())

    def past_matrix(self) -> Optional[Any]:
        """The numpy ``(m, ceil(m/64))`` uint64 past matrix, or ``None``
        on the pure backend.  Rows little-endian-match :meth:`past_masks`;
        callers must treat it as read-only."""
        return self._mat

    def events_from_mask(self, mask: int) -> List[EventId]:
        """Decode a bitmask into the events it denotes, in dense order."""
        order = self._order
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
        ex = self._execution
        if len(cut) != ex.n_processes:
            raise ValueError("cut length must equal the number of processes")
        mask = 0
        for p, k in enumerate(cut):
            if k < 0 or k > len(ex.events_at(p)):
                raise ValueError(f"cut[{p}]={k} out of range for process {p}")
            if k:
                mask |= ((1 << k) - 1) << self._proc_base[p]
        return mask

    # ------------------------------------------------------------------
    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        return self._ensure_vc()[eid]

    def _bit(self, pe: int, pf: int) -> bool:
        """Bit *pe* of row *pf*, without materializing packed-int rows."""
        if self._past is not None:
            return bool(self._past[pf] >> pe & 1)
        return bool(int(self._mat[pf, pe >> 6]) >> (pe & 63) & 1)

    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Whether ``e -> f`` (strict: ``e != f`` and e causally precedes f)."""
        return self._bit(self._pos[e], self._pos[f])

    def leq(self, e: EventId, f: EventId) -> bool:
        """Whether ``e == f`` or ``e -> f``."""
        return e == f or self.happened_before(e, f)

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """Whether *e* and *f* are distinct and causally unordered."""
        pe, pf = self._pos[e], self._pos[f]
        return pe != pf and not self._bit(pe, pf) and not self._bit(pf, pe)

    # ------------------------------------------------------------------
    def causal_past(self, f: EventId) -> Set[EventId]:
        """All events ``e`` with ``e -> f`` (excluding *f* itself)."""
        return set(self.events_from_mask(self.causal_past_mask(f)))

    def causal_future(self, e: EventId) -> Set[EventId]:
        """All events ``f`` with ``e -> f``."""
        return set(self.events_from_mask(self.causal_future_mask(e)))

    def pairs(self) -> Iterator[Tuple[EventId, EventId]]:
        """All ordered pairs of distinct events (for exhaustive checks)."""
        ids = self._order
        for e in ids:
            for f in ids:
                if e != f:
                    yield e, f

    def relation_counts(self) -> Tuple[int, int]:
        """Return ``(ordered_pairs, concurrent_unordered_pairs)``.

        ``ordered_pairs`` counts ordered pairs ``(e, f)`` with ``e -> f``;
        ``concurrent_unordered_pairs`` counts unordered concurrent pairs.
        Happened-before is antisymmetric, so the former is just the popcount
        of the causal-past matrix, and the latter is the complement among
        all unordered pairs.
        """
        if self._mat is not None:
            from repro.core import npkernel

            ordered = npkernel.ordered_pair_count(self._mat)
        else:
            ordered = sum(mask.bit_count() for mask in self._past)
        m = len(self._order)
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
