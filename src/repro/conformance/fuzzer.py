"""Differential conformance fuzzing across clock schemes and oracles.

One randomized execution at a time, :func:`check_execution` replays every
legally applicable scheme from :mod:`repro.conformance.registry` and both
causality-oracle flavors, then cross-checks six invariants:

1. **exact-vs-hb** — for every scheme claiming
   ``characterizes_causality``, ``precedes`` must agree with ground-truth
   happened-before on all event pairs, and the word-parallel
   ``precedes_matrix`` path must agree bit-for-bit with the pairwise path
   (:meth:`TimestampAssignment.validate` vs ``validate_pairwise``).
2. **oracle-differential** — an :class:`IncrementalHBOracle` streamed over
   the same events, with pair, causal-past and cut-consistency queries
   interleaved between appends, must answer identically to the batch
   :class:`HappenedBeforeOracle`, and its
   ``freeze()`` must produce byte-identical causal-past rows.
3. **finalization-monotonic** — for inline schemes, a ``⊥`` timestamp that
   finalizes never changes afterwards, and ``finalize_at_termination`` from
   *any* prefix of the run both preserves already-final timestamps and
   yields an exact characterization of the prefix's happened-before.
4. **one-sided** — inexact baselines (lamport, plausible, hlc) must stay
   *consistent* (``e -> f ⟹ ts(e) < ts(f)``); they may overclaim but never
   miss a causal edge.
5. **backend-differential** — an oracle on the numpy kernel
   (:mod:`repro.core.npkernel`) must answer byte-identically to one on the
   pure kernel: causal-past rows, relation counts, vector clocks,
   validation reports, point queries interleaved with a stream's appends,
   and the rows of that stream frozen under a numpy pin.  Skipped
   silently when numpy is unavailable (the pure kernel is then the only
   one to check) or when ``backend="pure"`` pins the whole run.
6. **store-differential** — the columnar event store
   (:mod:`repro.core.colstore`) replaying the same ops must be
   indistinguishable from the object model: identical events, messages,
   and delivery order; byte-identical causal-past rows and validation
   reports through an execution built on the columnar store; and an
   :class:`IncrementalHBOracle` bound to a store that grows op by op,
   drained in ragged ``sync_store(store, upto=…)`` steps, must answer
   ``happened_before`` / ``vector_clock`` / ``causal_past`` mid-stream
   like one fed ``append_*`` per event, and end with the batch oracle's
   ``relation_counts``, ``freeze().past_masks()`` and vector clocks.

Failures come back as :class:`Mismatch` records carrying the generating op
list, ready for the shrinker and the JSONL report.  :func:`fuzz` drives
seeded trials over star/tree/connected topologies, mixing in fault
schedules from :mod:`repro.faults` so undelivered-message paths get
exercised deliberately rather than incidentally.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bench import cell_seed
from repro.clocks.host import ClockHost
from repro.clocks.replay import replay_one
from repro.clocks.vector import VectorClock
from repro.conformance.campaign import TRIAL_TOPOLOGIES, check_campaign
from repro.conformance.registry import (
    SchemeSpec,
    schemes_for,
    star_center_of,
)
from repro.core import HappenedBeforeOracle
from repro.core.backend import use_backend
from repro.core.cuts import full_cut, is_consistent
from repro.core.events import EventId
from repro.core.incremental import IncrementalHBOracle
from repro.core.random_executions import (
    Op,
    execution_from_ops,
    random_ops,
)
from repro.faults.models import FaultModel, GilbertElliottLoss, PartitionFault
from repro.topology import generators
from repro.topology.graph import CommunicationGraph

#: invariant identifiers, used in Mismatch.invariant and JSONL records
INVARIANTS = (
    "exact-vs-hb",
    "matrix-vs-pairwise",
    "oracle-differential",
    "finalization-monotonic",
    "one-sided",
    "backend-differential",
    "store-differential",
)

#: check_execution backend modes: "auto" runs the backend-differential
#: invariant when numpy is available; "pure"/"numpy" pin every oracle in
#: the run to that kernel
BACKEND_MODES = ("auto", "pure", "numpy")


@dataclass(frozen=True)
class Mismatch:
    """One observed conformance violation, with enough state to replay it."""

    invariant: str
    scheme: str  # clock name, or "oracle" for invariant 2
    detail: str
    n_processes: int
    edges: Tuple[Tuple[int, int], ...]
    ops: Tuple[Op, ...]
    fifo: bool
    context: Mapping[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """A JSON-serializable record for the mismatch report."""
        return {
            "invariant": self.invariant,
            "scheme": self.scheme,
            "detail": self.detail,
            "n_processes": self.n_processes,
            "edges": [list(e) for e in self.edges],
            "ops": [list(op) for op in self.ops],
            "fifo": self.fifo,
            **dict(self.context),
        }


@dataclass
class ConformanceReport:
    """Outcome of a fuzzing campaign."""

    trials: int = 0
    events_checked: int = 0
    checks: Dict[str, int] = field(default_factory=dict)
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def count(self, invariant: str, n: int = 1) -> None:
        if invariant not in INVARIANTS:
            raise ValueError(_unknown(invariant))
        self.checks[invariant] = self.checks.get(invariant, 0) + n


def _unknown(invariant: str) -> str:
    return f"unknown invariant {invariant!r}: expected one of {INVARIANTS}"


def _mk(
    invariant: str,
    scheme: str,
    detail: str,
    graph: CommunicationGraph,
    ops: Sequence[Op],
    fifo: bool,
    context: Mapping[str, Any],
) -> Mismatch:
    if invariant not in INVARIANTS:
        raise ValueError(_unknown(invariant))
    return Mismatch(
        invariant=invariant,
        scheme=scheme,
        detail=detail,
        n_processes=graph.n_vertices,
        edges=tuple(graph.edges),
        ops=tuple(tuple(op) for op in ops),
        fifo=fifo,
        context=dict(context),
    )


#: Mismatch fields serialized at the top level of a record; everything
#: else in a record is flattened context (see Mismatch.to_record)
_RECORD_FIELDS = (
    "invariant", "scheme", "detail", "n_processes", "edges", "ops", "fifo",
)


def mismatch_from_record(record: Mapping[str, Any]) -> Mismatch:
    """Rebuild a :class:`Mismatch` from its :meth:`~Mismatch.to_record` dict.

    Ops are flat tuples of scalars and edges are int pairs, so the JSON
    round trip is lossless — this is what lets fabric workers ship
    mismatches home as plain records and the coordinator reassemble the
    exact campaign report.
    """
    return Mismatch(
        invariant=record["invariant"],
        scheme=record["scheme"],
        detail=record["detail"],
        n_processes=record["n_processes"],
        edges=tuple(tuple(e) for e in record["edges"]),
        ops=tuple(tuple(op) for op in record["ops"]),
        fifo=record["fifo"],
        context={
            k: v for k, v in record.items() if k not in _RECORD_FIELDS
        },
    )


# ----------------------------------------------------------------------
# invariants 1 + 4: scheme vs ground truth, matrix vs pairwise
# ----------------------------------------------------------------------
def _check_schemes(
    graph, ops, execution, oracle, specs, center, fifo, context, report
):
    """The mismatches, and the ``vector`` scheme's assignment and matrix
    report against *oracle* (``None`` when it did not replay)."""
    out: List[Mismatch] = []
    vector = None
    for spec in specs:
        clock = spec.build(graph, center)
        try:
            asg = replay_one(execution, clock)
        except Exception as exc:  # a crash is a conformance failure too
            out.append(_mk(
                "exact-vs-hb" if spec.exact else "one-sided", spec.name,
                f"replay raised {exc!r}", graph, ops, fifo, context,
            ))
            continue
        rep_m = asg.validate(oracle)
        if spec.name == "vector":
            vector = (asg, rep_m)
        rep_p = asg.validate_pairwise(oracle)
        report.count("matrix-vs-pairwise")
        if (rep_m.false_negatives != rep_p.false_negatives
                or rep_m.false_positives != rep_p.false_positives):
            out.append(_mk(
                "matrix-vs-pairwise", spec.name,
                f"matrix path fn={len(rep_m.false_negatives)} "
                f"fp={len(rep_m.false_positives)} vs pairwise "
                f"fn={len(rep_p.false_negatives)} "
                f"fp={len(rep_p.false_positives)}",
                graph, ops, fifo, context,
            ))
        if spec.exact:
            report.count("exact-vs-hb")
            if not rep_p.characterizes:
                fn = rep_p.false_negatives[:3]
                fp = rep_p.false_positives[:3]
                out.append(_mk(
                    "exact-vs-hb", spec.name,
                    f"not a characterization: false_negatives={fn} "
                    f"false_positives={fp}",
                    graph, ops, fifo, context,
                ))
        else:
            report.count("one-sided")
            if not rep_p.is_consistent:
                out.append(_mk(
                    "one-sided", spec.name,
                    f"missed causal pairs: {rep_p.false_negatives[:3]}",
                    graph, ops, fifo, context,
                ))
    return out, vector


# ----------------------------------------------------------------------
# invariant 2: streaming oracle vs batch oracle
# ----------------------------------------------------------------------
def _check_oracles(graph, ops, execution, oracle, fifo, context, report):
    out: List[Mismatch] = []
    report.count("oracle-differential")
    inc = IncrementalHBOracle(graph.n_vertices)
    qrng = random.Random(len(ops) * 2654435761 % (2**31))
    # cuts draw from their own stream, so the pair queries stay what they were
    crng = random.Random(len(ops))
    seen: List = []
    for ev in execution.delivery_order():
        if ev.is_receive:
            inc.append_receive(ev.eid, execution.send_of(ev).eid)
        else:
            inc.append_event(ev)
        seen.append(ev.eid)
        if len(seen) >= 2 and qrng.random() < 0.4:
            a, b = qrng.sample(seen, 2)
            # happened-before between already-appended events is stable, so
            # the full-execution batch oracle is the correct reference even
            # mid-stream — for pairs and for cuts inside the appended prefix
            if inc.happened_before(a, b) != oracle.happened_before(a, b):
                out.append(_mk(
                    "oracle-differential", "oracle",
                    f"happened_before({a}, {b}) diverges mid-stream",
                    graph, ops, fifo, context,
                ))
            cut = tuple(crng.randint(0, k) for k in full_cut(inc))
            if is_consistent(inc, cut) != is_consistent(oracle, cut):
                out.append(_mk(
                    "oracle-differential", "oracle",
                    f"is_consistent({cut}) diverges mid-stream",
                    graph, ops, fifo, context,
                ))
            if inc.causal_past(a) != oracle.causal_past(a):
                out.append(_mk(
                    "oracle-differential", "oracle",
                    f"causal_past({a}) diverges mid-stream",
                    graph, ops, fifo, context,
                ))
    frozen = inc.freeze(execution)
    if frozen.past_masks() != oracle.past_masks():
        out.append(_mk(
            "oracle-differential", "oracle",
            "freeze() causal-past rows differ from batch oracle",
            graph, ops, fifo, context,
        ))
    if inc.relation_counts() != oracle.relation_counts():
        out.append(_mk(
            "oracle-differential", "oracle",
            "relation_counts diverge after full ingest",
            graph, ops, fifo, context,
        ))
    for eid in seen:
        if frozen.vector_clock(eid) != oracle.vector_clock(eid):
            out.append(_mk(
                "oracle-differential", "oracle",
                f"vector_clock({eid}) differs after freeze",
                graph, ops, fifo, context,
            ))
            break
    return out


# ----------------------------------------------------------------------
# invariant 3: inline finalization monotonicity, from every prefix
# ----------------------------------------------------------------------
def _check_finalization(
    graph, ops, oracle, specs, center, fifo, context, report, prefix_samples=4
):
    out: List[Mismatch] = []
    inline_specs = [s for s in specs if s.inline]
    if not inline_specs:
        return out
    # a prefix's happened-before is the trial oracle's restricted to its
    # events: an op list receives a message only after the op that sent it,
    # so nothing outside a prefix is in the causal past of an event inside
    # it.  Per process, each event with its vector clock, process-major as
    # ``all_events()`` lists them; ``e -> f`` for e != f iff
    # ``vc_f[e.proc] >= e.index``, the formula ``happened_before`` evaluates
    order = oracle.event_order
    rows: List[List[Tuple[Any, Tuple[int, ...]]]] = []
    base = 0
    for p in range(graph.n_vertices):
        end = base + oracle.event_count(p)
        rows.append([(eid, oracle.vector_clock(eid)) for eid in order[base:end]])
        base = end
    n_ops = len(ops)
    sample_at = set()
    if n_ops:
        stride = max(1, n_ops // prefix_samples)
        sample_at = set(range(stride - 1, n_ops, stride))
        sample_at.add(n_ops - 1)
    # the ops are a valid execution (``check_execution`` built it); a recv
    # op names only its tag, so each message's ends come from its send
    ends = {op[1]: (op[2], op[3]) for op in ops if op[0] == "send"}
    for spec in inline_specs:
        report.count("finalization-monotonic")
        host = ClockHost(spec.build(graph, center))
        clock = host.clock
        #: the event each step took: the host ranks events by step
        taken: List[EventId] = []
        final_ts: Dict = {}

        def record_final(source: str, step: int, eids: Iterable[EventId]) -> None:
            for eid in eids:
                ts = clock.timestamp(eid)
                if eid in final_ts and final_ts[eid] != ts:
                    out.append(_mk(
                        "finalization-monotonic", spec.name,
                        f"{source} step {step}: {eid} re-finalized "
                        f"{final_ts[eid]} -> {ts}",
                        graph, ops, fifo, context,
                    ))
                final_ts[eid] = ts

        for step, op in enumerate(ops):
            start = len(host.finalized)
            if op[0] == "local":
                k = host.local(p := op[1])
            elif op[0] == "send":
                k = host.send(p := op[2], op[3], op[1])
            else:
                src, p = ends[op[1]]
                k = host.receive(p, src, op[1])
            taken.append(rows[p][k - 1][0])
            record_final("stream", step, map(taken.__getitem__, host.finalized[start:]))
            # previously finalized timestamps must read back unchanged
            for eid, ts in final_ts.items():
                now = clock.timestamp(eid)
                # the table hands back the object it stored, so identity
                # settles almost every read; a replaced object is compared
                # by value
                if now is not ts and now != ts:
                    out.append(_mk(
                        "finalization-monotonic", spec.name,
                        f"step {step}: finalized {eid} drifted "
                        f"{ts} -> {now}",
                        graph, ops, fifo, context,
                    ))
            if step not in sample_at:
                continue
            # finalize a restored copy of this prefix: already-final values
            # must survive, everything must finalize, and the result must
            # characterize the prefix's happened-before exactly
            clone = spec.build(graph, center)
            clone.restore(clock.checkpoint())
            clone.finalize_at_termination()
            for eid, ts in final_ts.items():
                now = clone.timestamp(eid)
                if now != ts:
                    out.append(_mk(
                        "finalization-monotonic", spec.name,
                        f"prefix {step}: finalize_at_termination changed "
                        f"already-final {eid}: {ts} -> {now}",
                        graph, ops, fifo, context,
                    ))
            stamped = []
            for row, k in zip(rows, map(len, host.ranks)):
                for eid, vc in row[:k]:
                    t = clone.timestamp(eid)
                    if t is None:
                        out.append(_mk(
                            "finalization-monotonic", spec.name,
                            f"prefix {step}: {eid} still ⊥ after "
                            f"finalize_at_termination",
                            graph, ops, fifo, context,
                        ))
                    else:
                        stamped.append((eid, t, vc))
            for a, ts_a, _ in stamped:
                a_proc, a_index = a.proc, a.index
                for b, ts_b, vc_b in stamped:
                    if a is b:
                        continue
                    hb = vc_b[a_proc] >= a_index
                    claimed = ts_a.precedes(ts_b)
                    if hb != claimed:
                        out.append(_mk(
                            "finalization-monotonic", spec.name,
                            f"prefix {step}: {a}->{b} hb={hb} but "
                            f"finalized prefix claims {claimed}",
                            graph, ops, fifo, context,
                        ))
        # the fully finalized run must also be exact (covered separately by
        # invariant 1, but reached through the streaming path here)
        record_final("termination", n_ops, clock.finalize_at_termination())
    return out


def _vector_report(graph, execution, oracle):
    """A ``vector`` replay of *execution* and its report against *oracle*,
    where the trial has none to reuse."""
    asg = replay_one(execution, VectorClock(graph.n_vertices))
    return asg, asg.validate(oracle)


# ----------------------------------------------------------------------
# invariant 5: numpy array kernel vs pure packed-int kernel
# ----------------------------------------------------------------------
def _check_backends(graph, ops, execution, oracle, vector, fifo, context,
                    report):
    from repro.core.backend import numpy_available

    out: List[Mismatch] = []
    if not numpy_available():
        return out
    report.count("backend-differential")

    def bad(detail: str) -> None:
        out.append(_mk(
            "backend-differential", "oracle", detail,
            graph, ops, fifo, context,
        ))

    # a pure trial oracle is the pure side, and so is the vector scheme's
    # report against it; a numpy one (a pin, or a long auto trial) is not
    if oracle.backend == "pure":
        pure = oracle
    else:
        pure, vector = HappenedBeforeOracle(execution, backend="pure"), None
    fast = HappenedBeforeOracle(execution, backend="numpy")
    if fast.past_masks() != pure.past_masks():
        bad("numpy past matrix != pure causal-past rows")
        return out  # rows are the substrate; everything below would cascade
    if fast.relation_counts() != pure.relation_counts():
        bad("relation_counts diverge across backends")
    ids = [ev.eid for ev in execution.all_events()]
    for eid in ids:
        if fast.vector_clock(eid) != pure.vector_clock(eid):
            bad(f"vector_clock({eid}) diverges across backends")
            break
    qrng = random.Random((len(ops) + 1) * 1099087573 % (2**31))
    # streaming hand-off: interleave point queries with appends, then
    # freeze under a numpy pin
    inc = IncrementalHBOracle(graph.n_vertices)
    seen: List = []
    for ev in execution.delivery_order():
        if ev.is_receive:
            inc.append_receive(ev.eid, execution.send_of(ev).eid)
        else:
            inc.append_event(ev)
        seen.append(ev.eid)
        if len(seen) >= 2 and qrng.random() < 0.25:
            a, b = qrng.sample(seen, 2)
            if inc.happened_before(a, b) != fast.happened_before(a, b):
                bad(f"happened_before({a}, {b}) diverges vs numpy mid-stream")
    with use_backend("numpy"):
        frozen = inc.freeze(execution)
    if frozen.backend != "numpy":
        bad("freeze() under a numpy pin did not select the numpy kernel")
    if frozen.past_masks() != pure.past_masks():
        bad("freeze() rows under a numpy pin differ from the pure oracle's")
    for eid in ids:
        if frozen.vector_clock(eid) != pure.vector_clock(eid):
            bad(f"freeze() under a numpy pin: vector_clock({eid}) differs")
            break
    # one scheme validation end to end: the array matrix-validate path
    # (numpy oracle) must yield the identical report to the packed-int
    # path (pure oracle), mismatch ordering included
    asg, rep_pure = vector or _vector_report(graph, execution, pure)
    if asg.validate(fast) != rep_pure:
        bad("validate() report differs between numpy and pure oracles")
    return out


# ----------------------------------------------------------------------
# invariant 6: columnar store, and an oracle fed from it, vs the object model
# ----------------------------------------------------------------------
def _check_stores(graph, ops, execution, oracle, vector, fifo, context,
                  report):
    from repro.core.colstore import ColumnarExecutionBuilder, EventStore

    out: List[Mismatch] = []
    report.count("store-differential")

    def bad(detail: str) -> None:
        out.append(_mk(
            "store-differential", "store", detail,
            graph, ops, fifo, context,
        ))

    # same ops through the columnar builder: the execution view must be
    # indistinguishable from the object-model one
    cex = execution_from_ops(
        graph, ops,
        builder=ColumnarExecutionBuilder(graph.n_vertices, graph),
    )
    if list(cex.delivery_order()) != list(execution.delivery_order()):
        bad("columnar delivery_order differs from object builder")
        return out  # the executions disagree; everything below cascades
    if tuple(cex.messages) != tuple(execution.messages):
        bad("columnar messages differ from object builder")
    if cex.event_counts() != execution.event_counts():
        bad("columnar event_counts differ from object builder")
    col_oracle = HappenedBeforeOracle(cex)
    if col_oracle.past_masks() != oracle.past_masks():
        bad("causal-past rows differ when built over the columnar store")
    _, rep_obj = vector or _vector_report(graph, execution, oracle)
    asg_col = replay_one(cex, VectorClock(graph.n_vertices))
    if rep_obj != asg_col.validate(col_oracle):
        bad("validate() report differs between object and columnar store")

    # feed differential: the same ops grow a columnar store one row at a
    # time; one oracle is fed per event from the object model, the other is
    # bound to the store and drained in ragged steps, queries interleaved
    n = graph.n_vertices
    store = EventStore(n, graph)
    fed = IncrementalHBOracle(n)
    drained = IncrementalHBOracle(n)
    drained.bind_store(store)
    qrng = random.Random((len(ops) + 3) * 2246822519 % (2**31))
    tags: Dict[Any, int] = {}
    seen: List = []
    for op in ops:
        if op[0] == "local":
            store.append_local(op[1])
        elif op[0] == "send":
            tags[op[1]] = store.append_send(op[2], op[3])
        else:
            msg_id = tags[op[1]]
            store.append_receive(store.message(msg_id).dst, msg_id)
        ev = execution.event(store.event_id(store.n_events - 1))
        fed.append_event(
            ev, execution.send_of(ev).eid if ev.is_receive else None
        )
        seen.append(ev.eid)
        if qrng.random() < 0.3:
            # a partial drain: leaves a tail for the next step or query
            drained.sync_store(store, upto=qrng.randint(0, store.n_events))
        if len(seen) >= 2 and qrng.random() < 0.3:
            a, b = qrng.sample(seen, 2)
            if drained.happened_before(a, b) != fed.happened_before(a, b):
                bad(
                    f"store-fed happened_before({a}, {b}) diverges from "
                    f"the per-event feed mid-stream"
                )
            if drained.vector_clock(a) != fed.vector_clock(a):
                bad(
                    f"store-fed vector_clock({a}) diverges from the "
                    f"per-event feed mid-stream"
                )
            if drained.causal_past(b) != fed.causal_past(b):
                bad(
                    f"store-fed causal_past({b}) diverges from the "
                    f"per-event feed mid-stream"
                )
    if not (
        drained.relation_counts()
        == fed.relation_counts()
        == oracle.relation_counts()
    ):
        bad("relation_counts differ between feeds and the batch oracle")
    frozen = drained.freeze(execution)
    if frozen.past_masks() != oracle.past_masks():
        bad("store-fed freeze() rows differ from batch oracle")
    for eid in seen:
        if frozen.vector_clock(eid) != oracle.vector_clock(eid):
            bad(f"store-fed freeze() vector_clock({eid}) differs")
            break
    return out


# ----------------------------------------------------------------------
def check_execution(
    graph: CommunicationGraph,
    ops: Sequence[Op],
    *,
    fifo: bool = False,
    schemes: Optional[Sequence[SchemeSpec]] = None,
    context: Optional[Mapping[str, Any]] = None,
    report: Optional[ConformanceReport] = None,
    backend: str = "auto",
) -> List[Mismatch]:
    """Run all conformance invariants on one execution.

    *schemes* restricts the scheme set (corpus replays pin specific
    schemes); by default every scheme legal for (*graph*, *fifo*) runs.
    *backend* is one of :data:`BACKEND_MODES`: ``pure``/``numpy`` pin the
    kernel for every oracle built during the check; ``auto`` additionally
    runs the backend-differential invariant whenever numpy is importable.
    """
    if backend not in BACKEND_MODES:
        raise ValueError(
            f"backend must be one of {BACKEND_MODES}, got {backend!r}"
        )
    context = dict(context or {})
    report = report if report is not None else ConformanceReport()
    specs = list(schemes) if schemes is not None else schemes_for(graph, fifo)
    center = star_center_of(graph) or 0
    execution = execution_from_ops(graph, ops)
    report.events_checked += execution.n_events
    pin = backend if backend in ("pure", "numpy") else None
    ctx = use_backend(pin) if pin is not None else nullcontext()
    with ctx:
        oracle = HappenedBeforeOracle(execution)
        # the vector scheme's (assignment, report against oracle), if any
        mismatches, vector = _check_schemes(
            graph, ops, execution, oracle, specs, center, fifo, context,
            report,
        )
        mismatches += _check_oracles(
            graph, ops, execution, oracle, fifo, context, report
        )
        mismatches += _check_finalization(
            graph, ops, oracle, specs, center, fifo, context, report
        )
        mismatches += _check_stores(
            graph, ops, execution, oracle, vector, fifo, context, report
        )
    if backend != "pure":
        mismatches += _check_backends(
            graph, ops, execution, oracle, vector, fifo, context, report
        )
    return mismatches


# ----------------------------------------------------------------------
# trial generation
# ----------------------------------------------------------------------
def _trial_fault(kind: int, n: int) -> Optional[FaultModel]:
    """Cycle a small family of drop schedules through the trials."""
    if kind == 1:
        return GilbertElliottLoss(
            p_enter_burst=0.2, p_exit_burst=0.3, loss_burst=1.0
        )
    if kind == 2:
        half = max(1, n // 2)
        return PartitionFault(
            groups=[range(half), range(half, n)], start=2.0, duration=8.0
        )
    return None


def _trial_graph(kind: str, n: int, rng: random.Random) -> CommunicationGraph:
    if kind == "star":
        return generators.star(n)
    if kind == "tree":
        return generators.random_tree(n, rng)
    return generators.erdos_renyi(n, 0.5, rng)  # "random"; check_campaign ran


def generate_trial(
    seed: int,
    trial: int,
    topologies: Sequence[str],
    max_steps: int,
) -> Tuple[CommunicationGraph, List[Op], bool, Dict[str, Any]]:
    """Deterministically generate trial *trial* of a campaign.

    Refuses what :func:`check_campaign` refuses.
    """
    check_campaign(topologies, max_steps)
    rng = random.Random(cell_seed(seed, "conformance", trial))
    kind = topologies[trial % len(topologies)]
    n = rng.randrange(2, 8)
    graph = _trial_graph(kind, n, rng)
    fifo = trial % 3 == 0
    deliver_all = trial % 4 != 0
    # FIFO trials stay lossless: the SK differential vectors assume
    # *reliable* FIFO channels, and a dropped message would create a
    # sequence gap that legally breaks their encoding
    fault = None if fifo else _trial_fault(trial % 5 % 3, n)
    steps = rng.randrange(0, max(1, max_steps))
    ops = random_ops(
        graph,
        rng,
        steps=steps,
        deliver_all=deliver_all,
        fifo=fifo,
        fault=fault,
    )
    context = {
        "trial": trial,
        "seed": seed,
        "topology": kind,
        "fault": type(fault).__name__ if fault else "none",
    }
    return graph, ops, fifo, context


def run_trials(
    report: ConformanceReport,
    lo: int,
    hi: int,
    *,
    seed: int = 0,
    topologies: Sequence[str] = TRIAL_TOPOLOGIES,
    max_steps: int = 40,
    shrink: bool = True,
    backend: str = "auto",
    tracer=None,
) -> ConformanceReport:
    """Run campaign trials ``[lo, hi)`` into *report*.

    Trial generation keys off the *absolute* trial index, so a campaign
    sharded into chunks (the fabric's ``conformance-chunk`` work kind)
    reproduces the serial campaign exactly, per trial, no matter how the
    chunks are placed or in which order they complete.  Coordinates that
    :func:`check_campaign` refuses raise before any trial runs.
    """
    from repro.conformance.shrinker import shrink_mismatch

    check_campaign(topologies, max_steps)
    for trial in range(lo, hi):
        graph, ops, fifo, context = generate_trial(
            seed, trial, topologies, max_steps
        )
        found = check_execution(
            graph, ops, fifo=fifo, context=context, report=report,
            backend=backend,
        )
        report.trials += 1
        for mm in found:
            if shrink:
                mm = shrink_mismatch(graph, mm)
            report.mismatches.append(mm)
            if tracer is not None:
                tracer.event("mismatch", **mm.to_record())
    return report


def fuzz(
    trials: int,
    seed: int = 0,
    topologies: Sequence[str] = TRIAL_TOPOLOGIES,
    max_steps: int = 40,
    tracer=None,
    shrink: bool = True,
    backend: str = "auto",
) -> ConformanceReport:
    """Run a fuzzing campaign; every mismatch is (optionally) shrunk.

    The campaign is a pure function of ``(trials, seed, topologies,
    max_steps)`` — per-trial RNGs derive from :func:`repro.bench.cell_seed`
    so reports reproduce exactly.  *backend* is passed through to
    :func:`check_execution`; coordinates that :func:`check_campaign`
    refuses raise before any trial runs.
    """
    report = ConformanceReport()
    run_trials(
        report,
        0,
        trials,
        seed=seed,
        topologies=topologies,
        max_steps=max_steps,
        shrink=shrink,
        backend=backend,
        tracer=tracer,
    )
    if tracer is not None:
        tracer.event(
            "summary",
            trials=report.trials,
            events=report.events_checked,
            checks=dict(sorted(report.checks.items())),
            mismatches=len(report.mismatches),
        )
    return report
