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
event → timestamp map with helpers to compare events and to validate the
scheme against the ground-truth happened-before oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.clocks.base import ClockAlgorithm, Timestamp, precedes_matrix_rows
from repro.core.events import EventId
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


class TimestampAssignment:
    """The timestamps an algorithm assigned to one execution."""

    def __init__(
        self,
        algorithm: ClockAlgorithm,
        execution: Execution,
        timestamps: Mapping[EventId, Timestamp],
        finalized_during_run: Set[EventId],
    ) -> None:
        self._algorithm = algorithm
        self._execution = execution
        self._ts: Dict[EventId, Timestamp] = dict(timestamps)
        self._finalized_during_run = frozenset(finalized_during_run)

    @property
    def algorithm(self) -> ClockAlgorithm:
        return self._algorithm

    @property
    def execution(self) -> Execution:
        return self._execution

    @property
    def finalized_during_run(self) -> frozenset:
        """Events whose timestamps became permanent before termination."""
        return self._finalized_during_run

    def __getitem__(self, eid: EventId) -> Timestamp:
        return self._ts[eid]

    def __contains__(self, eid: EventId) -> bool:
        return eid in self._ts

    def __len__(self) -> int:
        return len(self._ts)

    def items(self) -> Iterable[Tuple[EventId, Timestamp]]:
        return self._ts.items()

    def precedes(self, e: EventId, f: EventId) -> bool:
        """Timestamp-based causality decision for two events."""
        return self._ts[e].precedes(self._ts[f])

    def concurrent(self, e: EventId, f: EventId) -> bool:
        return e != f and not self.precedes(e, f) and not self.precedes(f, e)

    # ------------------------------------------------------------------
    def max_elements(self) -> int:
        """Largest element count of any assigned timestamp (paper's metric)."""
        return max((ts.n_elements for ts in self._ts.values()), default=0)

    def mean_elements(self) -> float:
        if not self._ts:
            return 0.0
        return sum(ts.n_elements for ts in self._ts.values()) / len(self._ts)

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
        bits).
        """
        import random as _random

        if oracle is None:
            oracle = incremental_from_execution(self._execution)
        rng = _random.Random(seed)
        ids = [ev.eid for ev in self._execution.all_events()]
        if len(ids) < 2:
            return self.validate(oracle)
        false_neg = []
        false_pos = []
        n_ordered = 0
        n_concurrent = 0
        for _ in range(n_pairs):
            a, b = rng.sample(ids, 2)
            # Check both directions of the sampled pair, but classify the
            # unordered pair once, so ``n_ordered + n_concurrent == n_pairs``
            # and every concurrent pair contributes exactly the two
            # direction-checks the ``false_positive_rate`` denominator
            # assumes.  (Checking one direction while counting the pair
            # used to skew both totals.)
            hb_ab = oracle.happened_before(a, b)
            hb_ba = oracle.happened_before(b, a)
            for (x, y), hb in (((a, b), hb_ab), ((b, a), hb_ba)):
                claimed = self._ts[x].precedes(self._ts[y])
                if hb and not claimed:
                    false_neg.append((x, y))
                elif claimed and not hb:
                    false_pos.append((x, y))
            if hb_ab or hb_ba:
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

    def validate(
        self,
        oracle: Optional[AnyOracle] = None,
        events: Optional[Sequence[EventId]] = None,
    ) -> ValidationReport:
        """Exhaustively compare timestamp order with true happened-before.

        *events* restricts the check to a subset (e.g. a finalized cut);
        defaults to every event in the execution.  Either oracle flavor is
        accepted — an incremental oracle is frozen, not rebuilt.

        The comparison is matrix-based: the scheme's full precedes-matrix
        (one packed-int row per event, built word-parallel when the scheme
        provides :meth:`~repro.clocks.base.Timestamp.precedes_matrix`) is
        XORed against the oracle's causal-past masks, so only mismatching
        pairs are ever materialized.  The report is identical — field for
        field, including mismatch ordering — to the pairwise reference
        implementation :meth:`validate_pairwise`.

        When the oracle holds its rows on the numpy backend and the scheme
        provides :meth:`~repro.clocks.base.Timestamp.precedes_matrix_words`,
        the whole XOR/popcount/decode happens on uint64 matrices without
        ever materializing packed ints — same report, same ``validate.*``
        counters (the backend-differential fuzzer invariant pins it).
        """
        if oracle is None:
            oracle = HappenedBeforeOracle(self._execution)
        else:
            oracle = as_batch_oracle(oracle, self._execution)
        ids = (
            list(events)
            if events is not None
            else [ev.eid for ev in self._execution.all_events()]
        )
        m = len(ids)
        ts_list = [self._ts[eid] for eid in ids]
        if events is None and m:
            # full-execution check: ids follow the oracle's dense indexing,
            # so the array matrices line up row-for-row
            report = self._validate_matrix_words(oracle, ids, ts_list)
            if report is not None:
                return report
        scheme_rows = precedes_matrix_rows(ts_list)
        if events is None:
            # ids follow all_events() order == the oracle's dense indexing,
            # so its strict causal-past masks are the truth rows verbatim.
            hb_rows = oracle.past_masks()
        else:
            sel = [oracle.index_of(eid) for eid in ids]
            masks = oracle.past_masks()
            hb_rows = []
            for j in range(m):
                mask_j = masks[sel[j]]
                row = 0
                for i in range(m):
                    row |= (mask_j >> sel[i] & 1) << i
                hb_rows.append(row)
        n_ordered = sum(row.bit_count() for row in hb_rows)
        n_concurrent = m * (m - 1) // 2 - n_ordered
        # Mismatch (i claims-vs-truth j) sorted to the pairwise reference
        # order: pair-major over (min, max) positions, direction min->max
        # before max->min.
        neg_keyed: List[Tuple[Tuple[int, int, int], Tuple[EventId, EventId]]]
        neg_keyed = []
        pos_keyed: List[Tuple[Tuple[int, int, int], Tuple[EventId, EventId]]]
        pos_keyed = []
        for j in range(m):
            diff = scheme_rows[j] ^ hb_rows[j]
            diff &= ~(1 << j)  # scheme rows keep a zero diagonal by contract
            hb_row = hb_rows[j]
            while diff:
                low = diff & -diff
                i = low.bit_length() - 1
                diff ^= low
                key = (min(i, j), max(i, j), 0 if i < j else 1)
                if hb_row >> i & 1:
                    neg_keyed.append((key, (ids[i], ids[j])))
                else:
                    pos_keyed.append((key, (ids[i], ids[j])))
        neg_keyed.sort(key=lambda kv: kv[0])
        pos_keyed.sort(key=lambda kv: kv[0])
        # observability: how much work the matrix validator did — compared
        # cells (the full m×m grid) and mismatch bits it had to decode
        reg = active_registry()
        reg.counter("validate.cells").inc(m * m)
        reg.counter("validate.mismatch_decodes").inc(
            len(neg_keyed) + len(pos_keyed)
        )
        reg.counter("validate.runs").inc()
        return ValidationReport(
            algorithm=self._algorithm.name,
            n_events=m,
            n_ordered_pairs=n_ordered,
            n_concurrent_pairs=n_concurrent,
            false_negatives=tuple(pair for _k, pair in neg_keyed),
            false_positives=tuple(pair for _k, pair in pos_keyed),
        )

    def _validate_matrix_words(
        self,
        oracle: HappenedBeforeOracle,
        ids: Sequence[EventId],
        ts_list: Sequence[Timestamp],
    ) -> Optional[ValidationReport]:
        """Array-native :meth:`validate` body; ``None`` = no fast path.

        Requires the oracle's numpy past matrix and a homogeneous
        timestamp class with a ``precedes_matrix_words`` override.  The
        decode walks only the nonzero words of the XOR, producing the
        exact keyed mismatch lists (and counter increments) of the
        packed-int path.
        """
        hb_mat = oracle.past_matrix()
        if hb_mat is None:
            return None
        cls = type(ts_list[0])
        if not all(type(t) is cls for t in ts_list):
            return None
        scheme_mat = cls.precedes_matrix_words(ts_list)
        if scheme_mat is None:
            return None
        import numpy as np

        m = len(ids)
        diff = scheme_mat ^ hb_mat
        jarr = np.arange(m)
        # scheme rows keep a zero diagonal by contract; clear it anyway to
        # mirror the packed-int path bit for bit
        diff[jarr, jarr >> 6] &= ~(
            np.uint64(1) << (jarr & 63).astype(np.uint64)
        )
        n_ordered = int(np.bitwise_count(hb_mat).sum(dtype=np.int64))
        n_concurrent = m * (m - 1) // 2 - n_ordered
        neg_keyed: List[Tuple[Tuple[int, int, int], Tuple[EventId, EventId]]]
        neg_keyed = []
        pos_keyed: List[Tuple[Tuple[int, int, int], Tuple[EventId, EventId]]]
        pos_keyed = []
        jj, ww = np.nonzero(diff)
        diff_words = diff[jj, ww].tolist()
        hb_words = hb_mat[jj, ww].tolist()
        for j, w, dw, hw in zip(jj.tolist(), ww.tolist(), diff_words, hb_words):
            base = w << 6
            while dw:
                low = dw & -dw
                b = low.bit_length() - 1
                dw ^= low
                i = base + b
                key = (min(i, j), max(i, j), 0 if i < j else 1)
                if hw >> b & 1:
                    neg_keyed.append((key, (ids[i], ids[j])))
                else:
                    pos_keyed.append((key, (ids[i], ids[j])))
        neg_keyed.sort(key=lambda kv: kv[0])
        pos_keyed.sort(key=lambda kv: kv[0])
        reg = active_registry()
        reg.counter("validate.cells").inc(m * m)
        reg.counter("validate.mismatch_decodes").inc(
            len(neg_keyed) + len(pos_keyed)
        )
        reg.counter("validate.runs").inc()
        return ValidationReport(
            algorithm=self._algorithm.name,
            n_events=m,
            n_ordered_pairs=n_ordered,
            n_concurrent_pairs=n_concurrent,
            false_negatives=tuple(pair for _k, pair in neg_keyed),
            false_positives=tuple(pair for _k, pair in pos_keyed),
        )

    def validate_pairwise(
        self,
        oracle: Optional[AnyOracle] = None,
        events: Optional[Sequence[EventId]] = None,
    ) -> ValidationReport:
        """Pairwise reference implementation of :meth:`validate`.

        Quadratic in both comparisons and oracle queries; kept as the
        ground-truth for the equivalence tests and the benchmark baseline.
        """
        if oracle is None:
            oracle = HappenedBeforeOracle(self._execution)
        else:
            oracle = as_batch_oracle(oracle, self._execution)
        ids = (
            list(events)
            if events is not None
            else [ev.eid for ev in self._execution.all_events()]
        )
        false_neg: List[Tuple[EventId, EventId]] = []
        false_pos: List[Tuple[EventId, EventId]] = []
        n_ordered = 0
        n_concurrent = 0
        for i, e in enumerate(ids):
            for f in ids[i + 1 :]:
                for a, b in ((e, f), (f, e)):
                    hb = oracle.happened_before(a, b)
                    claimed = self._ts[a].precedes(self._ts[b])
                    if hb and not claimed:
                        false_neg.append((a, b))
                    elif claimed and not hb:
                        false_pos.append((a, b))
                if oracle.happened_before(e, f) or oracle.happened_before(f, e):
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
    finalized: List[Set[EventId]] = [set() for _ in algorithms]

    reg = active_registry()
    delay_hists = [
        reg.histogram("clock.finalization_delay_events", clock=algo.name)
        for algo in algorithms
    ]
    seq: Dict[EventId, int] = {}
    order = execution.delivery_order()
    for idx, ev in enumerate(order):
        seq[ev.eid] = idx
        for i, algo in enumerate(algorithms):
            if ev.is_local:
                algo.on_local(ev)
            elif ev.is_send:
                payloads[i][ev.msg_id] = algo.on_send(ev)  # type: ignore[index]
            else:
                payload = payloads[i].pop(ev.msg_id)  # type: ignore[arg-type]
                controls = algo.on_receive(ev, payload)
                for cm in controls:
                    algo.on_control(cm.src, cm.dst, cm.payload)
            newly = algo.drain_newly_finalized()
            if newly:
                finalized[i].update(newly)
                for eid in newly:
                    # time-to-non-⊥ in events under the replayer's total
                    # order (instant control delivery = best case)
                    delay_hists[i].observe(idx - seq[eid])

    results: List[TimestampAssignment] = []
    for i, algo in enumerate(algorithms):
        if finalize:
            algo.finalize_at_termination()
            algo.drain_newly_finalized()
        ts: Dict[EventId, Timestamp] = {}
        for ev in execution.all_events():
            t = algo.timestamp(ev.eid)
            if t is not None:
                ts[ev.eid] = t
        results.append(
            TimestampAssignment(algo, execution, ts, finalized[i])
        )
    return results


def replay_one(
    execution: Execution, algorithm: ClockAlgorithm, finalize: bool = True
) -> TimestampAssignment:
    """Convenience wrapper for a single algorithm."""
    return replay(execution, [algorithm], finalize=finalize)[0]
