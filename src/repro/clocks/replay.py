"""Replaying clock algorithms over recorded executions.

The replayer feeds an :class:`~repro.core.execution.Execution` to one or
more :class:`~repro.clocks.base.ClockAlgorithm` instances in a causally
consistent total order, transporting application payloads between the send
and receive hooks and delivering control messages *instantly* (zero-latency
control channels).  Instant delivery gives each inline scheme its best-case
finalization behaviour; hosts that care about finalization *timing* should
use the discrete-event simulator (:mod:`repro.sim`) instead, which routes
control messages through channels with real delays.

The result per algorithm is a :class:`TimestampAssignment`: an immutable
event → timestamp table with helpers to compare events and to validate the
scheme against the ground-truth happened-before oracle.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.clocks.base import ClockAlgorithm, Timestamp, precedes_matrix_rows
from repro.clocks.inline_cover import CoverInlineClock
from repro.clocks.inline_star import StarInlineClock
from repro.core.events import EventId, EventKind
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import (
    AnyOracle,
    as_batch_oracle,
    incremental_from_execution,
)
from repro.obs.metrics import active_registry


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a scheme against the happened-before oracle.

    ``false_negatives`` are ordered pairs ``(e, f)`` with ``e -> f`` but
    ``not ts_e.precedes(ts_f)`` — a *consistency* violation, fatal for every
    scheme.  ``false_positives`` are pairs claimed ordered by the timestamps
    but actually concurrent — expected to be empty for characterizing
    schemes, and merely counted for lossy ones (Lamport, plausible clocks).
    """

    algorithm: str
    n_events: int
    n_ordered_pairs: int
    n_concurrent_pairs: int
    false_negatives: Tuple[Tuple[EventId, EventId], ...]
    false_positives: Tuple[Tuple[EventId, EventId], ...]

    @property
    def is_consistent(self) -> bool:
        """Causal order never contradicted (no false negatives)."""
        return not self.false_negatives

    @property
    def characterizes(self) -> bool:
        """Comparison is exactly happened-before on the checked events."""
        return not self.false_negatives and not self.false_positives

    @property
    def false_positive_rate(self) -> float:
        """Fraction of concurrent ordered-pairs wrongly claimed ordered."""
        if self.n_concurrent_pairs == 0:
            return 0.0
        return len(self.false_positives) / (2 * self.n_concurrent_pairs)


#: the ``timestamp`` methods that read ``ClockAlgorithm._stamps`` and nothing
#: else: the base class's and the inline schemes' bounds-checking readers
_TABLE_READERS = frozenset(
    {ClockAlgorithm.timestamp, CoverInlineClock.timestamp, StarInlineClock.timestamp}
)


class TimestampAssignment:
    """The timestamps an algorithm assigned to one execution, as a table:
    ``rows[p][k - 1]`` is the timestamp of event ``(p, k)``, ``None`` for
    ``⊥``.  Construction takes the table and tallies the sizes in it."""

    def __init__(
        self,
        algorithm: ClockAlgorithm,
        execution: Execution,
        finalized_during_run: Iterable[EventId],
    ) -> None:
        self._algorithm = algorithm
        self._execution = execution
        self._finalized = finalized_during_run
        if (
            type(algorithm).timestamp in _TABLE_READERS
            and [len(row) for row in algorithm._stamps] == execution.event_counts()
        ):
            # the scheme built this very table, a timestamp per event as it
            # became final: a copy is what asking event by event would return
            rows = [row.copy() for row in algorithm._stamps]
        else:
            # a subclass's own ``timestamp`` (or a clock that saw another
            # execution) is asked: what it answers is what validation judges
            timestamp = algorithm.timestamp
            rows = [
                [timestamp(ev.eid) for ev in execution.events_at(proc)]
                for proc in range(execution.n_processes)
            ]
        self._rows: List[List[Optional[Timestamp]]] = rows
        stamps = [ts for row in rows for ts in row if ts is not None]
        #: ``{stored elements: how many timestamps}``, the paper's size metric
        self.element_tally: Dict[int, int] = Counter(
            map(attrgetter("n_elements"), stamps)
        )
        max_events = max(1, execution.max_events_per_process())
        #: ``{encoded bits: how many timestamps}``, Theorem 4.3's accounting
        self.bit_tally: Dict[int, int] = Counter()
        if type(algorithm).timestamp_bits is ClockAlgorithm.timestamp_bits:
            # the bits are a function of the width: one call per width
            for width, count in self.element_tally.items():
                self.bit_tally[algorithm.width_bits(width, max_events)] += count
        else:  # they depend on the value (``encoded``): one call per stamp
            self.bit_tally.update(map(algorithm.timestamp_bits, stamps, repeat(max_events)))

    @property
    def algorithm(self) -> ClockAlgorithm:
        return self._algorithm

    @property
    def execution(self) -> Execution:
        return self._execution

    @cached_property
    def finalized_during_run(self) -> frozenset:
        """Events whose timestamps became permanent before termination."""
        return frozenset(self._finalized)

    def __getitem__(self, eid: EventId) -> Timestamp:
        try:
            ts = self._rows[eid.proc][eid.index - 1]
        except IndexError:
            ts = None
        if ts is None:
            raise KeyError(eid)
        return ts

    def __contains__(self, eid: EventId) -> bool:
        try:
            return self._rows[eid.proc][eid.index - 1] is not None
        except IndexError:
            return False

    def __len__(self) -> int:
        return sum(self.element_tally.values())

    def items(self) -> Iterator[Tuple[EventId, Timestamp]]:
        """``(event id, timestamp)`` of every non-⊥ event, process-major."""
        for proc, row in enumerate(self._rows):
            for ev, ts in zip(self._execution.events_at(proc), row):
                if ts is not None:
                    yield ev.eid, ts

    def precedes(self, e: EventId, f: EventId) -> bool:
        """Timestamp-based causality decision for two events."""
        return self[e].precedes(self[f])

    # ------------------------------------------------------------------
    def max_elements(self) -> int:
        """Largest element count of any assigned timestamp (paper's metric)."""
        return max(self.element_tally, default=0)

    def mean_elements(self) -> float:
        if not self.element_tally:
            return 0.0
        return (
            sum(width * count for width, count in self.element_tally.items())
            / len(self)
        )

    # ------------------------------------------------------------------
    def validate_sampled(
        self,
        oracle: Optional[AnyOracle] = None,
        n_pairs: int = 10_000,
        seed: int = 0,
    ) -> ValidationReport:
        """Validation over a random sample of event pairs.

        Exhaustive validation is quadratic in the event count; for large
        simulations this checks *n_pairs* uniformly random ordered pairs
        instead.  The report's pair counts refer to the sample.

        Only point queries are made, so no causal-past matrix is built:
        a streaming :class:`~repro.core.incremental.IncrementalHBOracle`
        is queried as it is, and with no oracle the execution is streamed
        through one (O(|E|·n) integers, where the batch build is O(|E|²)
        bits).  Another execution's oracle is a ``ValueError``, and so is a
        negative *n_pairs*; one that is not an ``int`` is a ``TypeError``.
        """
        if isinstance(n_pairs, bool) or not isinstance(n_pairs, int):
            raise TypeError(f"n_pairs must be an int, not {type(n_pairs).__name__}")
        if n_pairs < 0:
            raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
        if oracle is None:
            oracle = incremental_from_execution(self._execution)
        self._refuse_foreign(oracle)
        ids = [ev.eid for ev in self._execution.all_events()]
        if len(ids) < 2:
            return self.validate(oracle)
        stamps = [ts for row in self._rows for ts in row]
        happened_before = oracle.happened_before
        false_neg: List[Tuple[EventId, EventId]] = []
        false_pos: List[Tuple[EventId, EventId]] = []
        n_ordered = 0
        for i, j in _sample_pairs(seed, len(ids), n_pairs):
            a, b, ts_a, ts_b = ids[i], ids[j], stamps[i], stamps[j]
            if ts_a is None or ts_b is None:
                raise KeyError(a if ts_a is None else b)
            # Both directions of the sampled pair are checked, the unordered
            # pair is classified once: ``n_ordered + n_concurrent ==
            # n_pairs`` and every concurrent pair contributes exactly the
            # two direction-checks ``false_positive_rate`` assumes.
            hb_ab = happened_before(a, b)
            hb_ba = happened_before(b, a)
            if hb_ab != ts_a.precedes(ts_b):
                (false_neg if hb_ab else false_pos).append((a, b))
            if hb_ba != ts_b.precedes(ts_a):
                (false_neg if hb_ba else false_pos).append((b, a))
            if hb_ab or hb_ba:
                n_ordered += 1
        return ValidationReport(
            algorithm=self._algorithm.name,
            n_events=len(ids),
            n_ordered_pairs=n_ordered,
            n_concurrent_pairs=n_pairs - n_ordered,
            false_negatives=tuple(false_neg),
            false_positives=tuple(false_pos),
        )

    def _refuse_foreign(self, oracle: AnyOracle) -> None:
        """``ValueError`` for another execution's oracle.  Reads per-process
        counts only: a streaming oracle is neither frozen nor asked for rows."""
        theirs = [oracle.event_count(p) for p in range(oracle.n_processes)]
        ours = self._execution.event_counts()
        if theirs != ours:
            raise ValueError(
                f"oracle was built for an execution with per-process "
                f"event counts {theirs}, the timestamps for {ours}"
            )

    def _batch_oracle(self, oracle: Optional[AnyOracle]) -> HappenedBeforeOracle:
        """The batch oracle to validate against: built when none is given,
        an incremental one frozen, one for another execution refused."""
        if oracle is None:
            return HappenedBeforeOracle(self._execution)
        self._refuse_foreign(oracle)
        return as_batch_oracle(oracle, self._execution)

    def validate(
        self,
        oracle: Optional[AnyOracle] = None,
        events: Optional[Sequence[EventId]] = None,
    ) -> ValidationReport:
        """Exhaustively compare timestamp order with true happened-before.

        *events* restricts the check to a subset (e.g. a finalized cut);
        defaults to every event in the execution.  Either oracle flavor is
        accepted — an incremental oracle is frozen, not rebuilt.  The
        comparison is :func:`decode_mismatches`; the report is identical —
        field for field, including mismatch ordering — to the pairwise
        reference :meth:`validate_pairwise`.  An event listed twice in
        *events* is a ``ValueError``: it is not concurrent with itself.
        """
        if events is not None:
            events = _distinct(events)
        oracle = self._batch_oracle(oracle)
        # ids in all_events() order follow the oracle's dense indexing, so
        # its rows are the truth verbatim; a subset is gathered by position
        ids = events if events is not None else oracle.event_order
        sel = None if events is None else [oracle.index_of(e) for e in ids]
        m = len(ids)
        # with no event ⊥ the process-major rows are in event_order order;
        # else ``self[eid]`` raises ``KeyError(eid)`` for the ⊥ one
        whole = events is None and len(self) == m
        stamps = [ts for row in self._rows for ts in row] if whole else [self[eid] for eid in ids]
        n_ordered, neg_i, neg_j, pos_i, pos_j = decode_mismatches(stamps, oracle, sel)
        at = ids.__getitem__
        return ValidationReport(
            algorithm=self._algorithm.name,
            n_events=m,
            n_ordered_pairs=n_ordered,
            n_concurrent_pairs=m * (m - 1) // 2 - n_ordered,
            false_negatives=tuple(zip(map(at, neg_i), map(at, neg_j))),
            false_positives=tuple(zip(map(at, pos_i), map(at, pos_j))),
        )

    def validate_pairwise(
        self,
        oracle: Optional[AnyOracle] = None,
        events: Optional[Sequence[EventId]] = None,
    ) -> ValidationReport:
        """Pairwise reference implementation of :meth:`validate`.

        Quadratic in comparisons: ``precedes`` once per ordered pair, the
        check itself.  The truth is read off each event's vector clock,
        once per event: for distinct events ``e -> f`` iff
        ``vc_f[e.proc] >= e.index``.  Kept as the ground-truth for the
        equivalence tests and the benchmark baseline.  Refuses an event
        listed twice in *events*, as :meth:`validate` does.
        """
        if events is not None:
            events = _distinct(events)
        oracle = self._batch_oracle(oracle)
        ids = (
            events
            if events is not None
            else [ev.eid for ev in self._execution.all_events()]
        )
        # one timestamp fetch (a ⊥ one raises first) and one clock read per
        # event; both directions also classify the unordered pair
        ts = [self[eid] for eid in ids]
        vcs = [oracle.vector_clock(eid) for eid in ids]
        false_neg: List[Tuple[EventId, EventId]] = []
        false_pos: List[Tuple[EventId, EventId]] = []
        n_ordered = 0
        n_concurrent = 0
        for i, (e, ts_e, vc_e) in enumerate(zip(ids, ts, vcs), 1):
            p, k = e.proc, e.index
            for f, ts_f, vc_f in zip(ids[i:], ts[i:], vcs[i:]):
                hb_ef = vc_f[p] >= k
                hb_fe = vc_e[f.proc] >= f.index
                if hb_ef != ts_e.precedes(ts_f):
                    (false_neg if hb_ef else false_pos).append((e, f))
                if hb_fe != ts_f.precedes(ts_e):
                    (false_neg if hb_fe else false_pos).append((f, e))
                if hb_ef or hb_fe:
                    n_ordered += 1
                else:
                    n_concurrent += 1
        return ValidationReport(
            algorithm=self._algorithm.name,
            n_events=len(ids),
            n_ordered_pairs=n_ordered,
            n_concurrent_pairs=n_concurrent,
            false_negatives=tuple(false_neg),
            false_positives=tuple(false_pos),
        )


def _distinct(events: Iterable[EventId]) -> List[EventId]:
    """*events* as a list; ``ValueError`` if one of them repeats."""
    ids = list(events)
    if len(set(ids)) != len(ids):
        raise ValueError("events lists an event more than once")
    return ids


def _sample_pairs(seed: int, n: int, n_pairs: int) -> Iterator[Sequence[int]]:
    """The positions ``random.Random(seed).sample(population, 2)`` picks
    from a population of ``n >= 2``, *n_pairs* times over.

    ``sample`` spends most of a two-element draw on its argument checks.
    Above its 21-element pool branch the selection alone is two draws of
    ``getrandbits(n.bit_length())``, each retried until below *n* and the
    second redrawn on a repeat; ``tests/clocks/test_sampled_reference.py``
    pins the stream pair for pair against ``rng.sample``.
    """
    rng = random.Random(seed)
    if n <= 21:
        for _ in range(n_pairs):
            yield rng.sample(range(n), 2)
        return
    getrandbits, bits = rng.getrandbits, n.bit_length()
    for _ in range(n_pairs):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        j = i
        while j == i:
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
        yield i, j


def decode_mismatches(
    ts_list: Sequence[Timestamp],
    oracle: HappenedBeforeOracle,
    sel: Optional[Sequence[int]] = None,
) -> Tuple[int, List[int], List[int], List[int], List[int]]:
    """Where *ts_list*'s order and *oracle*'s happened-before disagree.

    ``ts_list[a]`` is the timestamp of the oracle's event at dense position
    ``sel[a]`` (at position ``a`` without *sel*).  Returns ``(n_ordered,
    neg_i, neg_j, pos_i, pos_j)``: the causally ordered pairs among them,
    then the missed orderings and the claimed ones as positions into
    *ts_list* — ``i -> j`` in the truth but not in the timestamps, and the
    reverse — each in the pairwise reference order (pair-major over (min,
    max), direction min->max first).

    The comparison is matrix-based, in the representation the oracle
    already holds.  On the array kernel the scheme's precedes-matrix
    (:meth:`~repro.clocks.base.Timestamp.precedes_matrix_words`, or its
    packed-int rows converted once) is XORed against the oracle's
    ``uint64`` matrix and the mismatching cells are decoded in bulk
    (:func:`repro.core.npkernel.mismatch_indices`); on the pure kernel the
    same is done on packed ints, one row at a time.  Either way the cost
    beyond the XOR is the mismatches.  The ``validate.*`` counters are equal
    between the two kernels (the backend-differential fuzzer invariant pins
    it).
    """
    m = len(ts_list)
    truth = oracle.past_matrix()
    if truth is not None:
        from repro.core import npkernel

        if sel is not None:
            truth = npkernel.submatrix(truth, sel)
        kinds = set(map(type, ts_list))
        scheme = (
            kinds.pop().precedes_matrix_words(ts_list)
            if len(kinds) == 1
            else None
        )
        if scheme is None:
            scheme = npkernel.rows_to_matrix(precedes_matrix_rows(ts_list))
        n_ordered = npkernel.ordered_pair_count(truth)
        neg_i, neg_j, pos_i, pos_j = npkernel.mismatch_indices(scheme, truth)
    else:
        rows = oracle.past_masks()
        if sel is not None:
            rows = [
                sum((rows[j] >> i & 1) << a for a, i in enumerate(sel))
                for j in sel
            ]
        n_ordered = sum(row.bit_count() for row in rows)
        neg_i, neg_j, pos_i, pos_j = _mismatch_indices(
            precedes_matrix_rows(ts_list), rows
        )
    # observability: how much work the matrix validator did — compared
    # cells (the full m×m grid) and mismatch bits it had to decode
    reg = active_registry()
    reg.counter("validate.cells").inc(m * m)
    reg.counter("validate.mismatch_decodes").inc(len(neg_i) + len(pos_i))
    reg.counter("validate.runs").inc()
    return n_ordered, neg_i, neg_j, pos_i, pos_j


def _mismatch_indices(
    scheme_rows: Sequence[int], truth_rows: Sequence[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Packed-int reference of :func:`repro.core.npkernel.mismatch_indices`.

    Mismatching cells ``(i, j)`` — bit ``i`` of row ``j`` — as parallel
    position lists, missed orderings then claimed ones, each sorted to the
    pairwise reference order: pair-major over (min, max), direction
    min->max first.  That order is the integer ``(min·m + max)·2 + dir``.
    """
    m = len(truth_rows)
    missed: List[int] = []
    claimed: List[int] = []
    for j, truth in enumerate(truth_rows):
        # scheme rows keep a zero diagonal by contract; clear it all the same
        diff = (scheme_rows[j] ^ truth) & ~(1 << j)
        if not diff:
            continue
        for bits, keys in ((diff & truth, missed), (diff & ~truth, claimed)):
            lsb_first = bin(bits)[:1:-1]
            i = lsb_first.find("1")
            while i >= 0:
                keys.append(
                    (i * m + j) * 2 if i < j else (j * m + i) * 2 + 1
                )
                i = lsb_first.find("1", i + 1)

    def cells(keys: List[int]) -> Tuple[List[int], List[int]]:
        keys.sort()
        ordered = [
            divmod(key >> 1, m)[::-1] if key & 1 else divmod(key >> 1, m)
            for key in keys
        ]
        return [i for i, _j in ordered], [j for _i, j in ordered]

    return (*cells(missed), *cells(claimed))


def collect_assignment(
    algorithm: ClockAlgorithm,
    execution: Execution,
    finalized_during_run: Iterable[EventId],
    finalize: bool,
) -> TimestampAssignment:
    """The end of a run, shared by :func:`replay` and the simulator: apply
    termination finalization when *finalize* is set, then take the scheme's
    table of timestamps."""
    if finalize:
        algorithm.finalize_at_termination()
        algorithm.drain_newly_finalized()
    return TimestampAssignment(algorithm, execution, finalized_during_run)


def replay(
    execution: Execution,
    algorithms: Sequence[ClockAlgorithm],
    finalize: bool = True,
) -> List[TimestampAssignment]:
    """Run *algorithms* over *execution* with instant control delivery.

    When *finalize* is set (the default), termination finalization is applied
    at the end so every event has a permanent timestamp; events finalized
    only by that step are reported via
    :attr:`TimestampAssignment.finalized_during_run` being smaller than the
    full event set.
    """
    payloads: List[Dict[int, object]] = [dict() for _ in algorithms]
    finalized: List[List[EventId]] = [[] for _ in algorithms]

    reg = active_registry()
    delay_hists = [
        reg.histogram("clock.finalization_delay_events", clock=algo.name)
        for algo in algorithms
    ]
    #: rank[p][k]: position of event (p, k) in the replayer's total order
    rank: List[List[int]] = [[0] * (c + 1) for c in execution.event_counts()]
    by_proc = [execution.events_at(p) for p in range(execution.n_processes)]
    LOCAL, SEND = EventKind.LOCAL, EventKind.SEND
    #: per algorithm, {finalization delay in events: how many events}
    delays: List[Dict[int, int]] = [dict() for _ in algorithms]
    for idx, ev in enumerate(execution.delivery_order()):
        rank[ev.eid.proc][ev.eid.index] = idx
        kind = ev.kind
        # the replayer holds events, so it calls the Event hooks: a caller
        # may rebind them on an instance (the benchmark's offline workload
        # times ``on_send`` / ``on_receive`` that way)
        for i, algo in enumerate(algorithms):
            if kind is LOCAL:
                algo.on_local(ev)
            elif kind is SEND:
                payloads[i][ev.msg_id] = algo.on_send(ev)  # type: ignore[index]
            else:
                payload = payloads[i].pop(ev.msg_id)  # type: ignore[arg-type]
                ack = algo.on_receive(ev, payload)
                if ack is not None:
                    algo.on_control(ev.eid.proc, ev.peer, ack)
            newly = algo._newly_finalized
            if newly:
                final_ids = finalized[i]
                tally = delays[i]
                for q, j in newly:
                    final_ids.append(by_proc[q][j - 1].eid)
                    # time-to-non-⊥ in events under the replayer's total
                    # order (instant control delivery = best case)
                    delay = idx - rank[q][j]
                    tally[delay] = tally.get(delay, 0) + 1
                newly.clear()
    # integer delays: n observations of one value are exactly observe_n
    for hist, tally in zip(delay_hists, delays):
        for delay, count in tally.items():
            hist.observe_n(delay, count)

    return [
        collect_assignment(algo, execution, finalized[i], finalize)
        for i, algo in enumerate(algorithms)
    ]


def replay_one(
    execution: Execution, algorithm: ClockAlgorithm, finalize: bool = True
) -> TimestampAssignment:
    """Convenience wrapper for a single algorithm."""
    return replay(execution, [algorithm], finalize=finalize)[0]
