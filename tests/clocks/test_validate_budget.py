"""Call budgets for exhaustive validation and for the delivery order.

Wall-clock gates flake; the number of calls a seeded run makes does not.
Counted by ``tests/meter.py``'s rule, ``call`` *and* ``c_call`` events —
every function the interpreter dispatches, Python or builtin, because the
old per-bit loop spent its time in ``min``/``max``/``append``/``bit_length``
— for one ``validate()`` of a lossy scheme against a numpy oracle, over a
FIFO star(32) execution of 1,035 events.

At ``389689e`` the mismatch decode ran in the interpreter, one iteration per
mismatch bit (``python -m tests.clocks.test_validate_budget`` prints the
figures; the Python-level ``call`` events alone were 224,706 / 223,668 / 96,626):

==========  ===============  ========  =============  ==================
scheme      false positives  calls     calls / event  calls / event here
==========  ===============  ========  =============  ==================
hlc         108,712          662,679   640.3          6.5
lamport     108,712          661,641   639.3          5.4
plausible   46,653           284,464   274.8          2.8
==========  ===============  ========  =============  ==================

With the bulk decoder what is left is per *event* — the scheme's
precedes-matrix (a sort key per timestamp) and one ``to_bytes`` per row —
and does not grow with the number of mismatches.  ``validate`` reads the
timestamps by position when no event is ⊥: one call per event fewer than
a lookup by event id, which cost 7.5 / 6.4 / 3.7 calls per event here.

The second budget is the delivery order: an execution is immutable, so the
merge behind ``Execution.delivery_order()`` runs once however many replays,
oracle builds and streamed oracles ask for it (eleven times a rep in the
``offline-nine`` workload at ``389689e``).

The third is the pairwise reference itself, held against Lamport's
definition rather than against the oracle it reads: on every pinned corpus
case and scheme, its report equals one built from happened-before computed
here as the transitive closure of program order and send → receive over
the case's op list, for the whole execution and for a subset.  It asks each
timestamp's ``precedes`` once per *ordered* pair, m·(m−1) comparisons, and
the oracle for m vector clocks and no ``happened_before`` at all: ``e → f``
is ``vc_f[e.proc] ≥ e.index``.  Until ``0b03faa`` it asked
``happened_before`` once per ordered pair (at ``3ae9261`` four times per
unordered pair).

The fourth is sampled validation, in Python-level calls (``call`` events
only, by the same rule) per sampled pair: 2,000 pairs of the
hot-path budget's run — the 3/4/16 sequencer graph, 100 events per process,
seed 7 — against its frozen streamed oracle.  At ``e71ddf4`` a pair cost
28.4 (inline-cover) and 42.3 (vector) calls: ``random.sample``'s argument
checks, four timestamp lookups by hashed event id, a generator resumed per
vector component.  Drawn by position, each stamp fetched once and vectors
compared by ``all(map(le, a, b))`` it cost 10.1 and 12.8 before the meter's
rule; under the meter it costs 7.9 and 9.0 on CPython 3.11, the same as the
count without a warm-up at ``9639e48``, and the ceilings sit 5 % above that.
"""

import random
from pathlib import Path

import pytest

from repro.clocks import (
    CoverInlineClock,
    ValidationReport,
    VectorClock,
    replay_one,
)
from repro.conformance.corpus import load_corpus
from repro.conformance.registry import (
    scheme_by_name,
    schemes_for,
    star_center_of,
)
from repro.core import (
    EventId,
    Execution,
    HappenedBeforeOracle,
    incremental_from_execution,
)
from repro.core.backend import numpy_available
from repro.core.random_executions import execution_from_ops, random_execution
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators
from tests import meter

PARENT_CALLS = {"hlc": 662_679, "lamport": 661_641, "plausible": 284_464}
#: measured 2.79-6.36 (plausible 2,885, lamport 5,549, hlc 6,584 calls) on
#: CPython 3.11, + 5 %; 3.7-7.5 while ``validate`` fetched each timestamp by
#: event id
CEILING_CALLS_PER_EVENT = 6.7
#: calls per sampled pair at ``e71ddf4``, and the ceiling: 7.89 / 8.97
#: measured under the meter on CPython 3.11, + 5 %
SAMPLED_PARENT_CALLS_PER_PAIR = {"inline-cover": 28.4, "vector": 42.3}
SAMPLED_CEILING_CALLS_PER_PAIR = {"inline-cover": 8.3, "vector": 9.5}
SAMPLED_PAIRS = 2_000


def _fixed_execution():
    graph = generators.star(32)
    return graph, random_execution(
        graph, random.Random(2), steps=1_024, fifo=True, deliver_all=True
    )


def _validate_calls(scheme: str):
    def validate():
        graph, ex = _fixed_execution()
        asg = replay_one(ex, scheme_by_name(scheme).build(graph, 0))
        oracle = HappenedBeforeOracle(ex, backend="numpy")
        return lambda: asg.validate(oracle)

    return meter.calls(validate, c_calls=True)


@pytest.mark.skipif(not numpy_available(), reason="requires numpy >= 2.0")
@pytest.mark.parametrize("scheme", sorted(PARENT_CALLS))
def test_validate_calls_do_not_grow_with_the_mismatches(scheme):
    calls, report = _validate_calls(scheme)
    assert report.n_events == 1_035
    assert len(report.false_positives) >= 46_653
    assert calls <= 0.02 * PARENT_CALLS[scheme], calls
    assert calls <= CEILING_CALLS_PER_EVENT * report.n_events, calls


def test_the_delivery_order_is_merged_once_per_execution(monkeypatch):
    graph, ex = _fixed_execution()
    merges = 0
    merge = Execution._merge_order

    def counting(self):
        nonlocal merges
        merges += 1
        return merge(self)

    monkeypatch.setattr(Execution, "_merge_order", counting)
    for _ in range(3):
        replay_one(ex, VectorClock(graph.n_vertices))
    HappenedBeforeOracle(ex, backend="pure")
    incremental_from_execution(ex)
    assert merges == 1
    first = ex.delivery_order()
    want = list(first)
    first.reverse()
    del first[10:]
    assert ex.delivery_order() == want
    assert merges == 1


class _CountingOracle(HappenedBeforeOracle):
    clocks_read = asked = 0

    def vector_clock(self, eid):
        self.clocks_read += 1
        return super().vector_clock(eid)

    def happened_before(self, e, f):
        self.asked += 1
        return super().happened_before(e, f)


def _closure(n_processes, ops):
    """Happened-before from its definition: every event's strict causal
    past, as the transitive closure of program order and send → receive
    over *ops*, one reachability pass in op order (a receive comes after
    its send, so each predecessor's past is complete when it is read)."""
    past = {}
    last = [None] * n_processes
    sends = {}
    for op in ops:
        if op[0] == "recv":
            send = sends[op[1]]
            proc = send[1]
        else:
            proc = op[1] if op[0] == "local" else op[2]
        count = last[proc].index if last[proc] is not None else 0
        eid = EventId(proc, count + 1)
        preds = [last[proc]] if last[proc] is not None else []
        if op[0] == "recv":
            preds.append(send[0])
        elif op[0] == "send":
            sends[op[1]] = (eid, op[3])
        past[eid] = set().union(*({p} | past[p] for p in preds))
        last[proc] = eid
    return past


def _report_from_definition(asg, past, ids):
    """The report ``validate_pairwise`` must give over *ids*: each
    unordered pair once in list order, ``(e, f)`` then ``(f, e)``."""
    false_neg, false_pos = [], []
    n_ordered = 0
    for i, e in enumerate(ids):
        for f in ids[i + 1:]:
            hb_ef, hb_fe = e in past[f], f in past[e]
            for a, b, hb in ((e, f, hb_ef), (f, e, hb_fe)):
                if hb != asg[a].precedes(asg[b]):
                    (false_neg if hb else false_pos).append((a, b))
            n_ordered += hb_ef or hb_fe
    m = len(ids)
    return ValidationReport(
        algorithm=asg.algorithm.name,
        n_events=m,
        n_ordered_pairs=n_ordered,
        n_concurrent_pairs=m * (m - 1) // 2 - n_ordered,
        false_negatives=tuple(false_neg),
        false_positives=tuple(false_pos),
    )


@pytest.mark.parametrize(
    "case",
    load_corpus(Path(__file__).parent.parent / "conformance" / "corpus"),
    ids=lambda case: case.name,
)
def test_pairwise_reference_asks_once_per_ordered_pair(case, monkeypatch):
    graph = case.graph()
    execution = execution_from_ops(graph, case.ops)
    past = _closure(graph.n_vertices, case.ops)
    assert set(past) == {ev.eid for ev in execution.all_events()}
    specs = (
        [scheme_by_name(name) for name in case.schemes]
        if case.schemes is not None
        else schemes_for(graph, case.fifo)
    )
    compared = 0

    def counting(precedes):
        def wrapper(self, other):
            nonlocal compared
            compared += 1
            return precedes(self, other)
        return wrapper

    ids = [ev.eid for ev in execution.all_events()]
    subset = ids[::-2]
    m = len(ids)
    for spec in specs:
        asg = replay_one(
            execution, spec.build(graph, star_center_of(graph) or 0)
        )
        oracle = _CountingOracle(execution)
        with monkeypatch.context() as patch:
            for cls in {type(ts) for _, ts in asg.items()}:
                patch.setattr(cls, "precedes", counting(cls.precedes))
            compared = 0
            pairwise = asg.validate_pairwise(oracle)
        assert (oracle.clocks_read, oracle.asked) == (m, 0), spec.name
        assert compared == m * (m - 1), spec.name
        assert pairwise == _report_from_definition(asg, past, ids), spec.name
        assert pairwise == asg.validate(oracle), spec.name
        assert asg.validate_pairwise(oracle, subset) == _report_from_definition(
            asg, past, subset
        ), spec.name


def _sampled_calls_per_pair():
    graph, cover = generators.sequencer_architecture(
        3, 4, 16, rng=random.Random(7)
    )
    res = Simulation(
        graph,
        seed=7,
        clocks={
            "inline-cover": CoverInlineClock(graph, tuple(cover)),
            "vector": VectorClock(graph.n_vertices),
        },
        online_oracle=True,
    ).run(UniformWorkload(events_per_process=100, p_local=0.3))
    oracle = res.hb_oracle()
    per_pair = {}
    for name, asg in res.assignments.items():
        calls, report = meter.calls(
            lambda: lambda: asg.validate_sampled(oracle, n_pairs=SAMPLED_PAIRS, seed=7)
        )
        assert report.characterizes
        assert report.n_ordered_pairs + report.n_concurrent_pairs == SAMPLED_PAIRS
        per_pair[name] = calls / SAMPLED_PAIRS
    return per_pair


def test_sampled_validation_calls_per_pair_stay_under_the_ceiling():
    per_pair = _sampled_calls_per_pair()
    for name, ceiling in SAMPLED_CEILING_CALLS_PER_PAIR.items():
        assert per_pair[name] <= 0.5 * SAMPLED_PARENT_CALLS_PER_PAIR[name]
        assert per_pair[name] <= ceiling, (name, per_pair[name])


if __name__ == "__main__":
    for name, per_pair in _sampled_calls_per_pair().items():
        print(f"{name:12s} sampled calls/pair={per_pair:.1f}")
    for name in sorted(PARENT_CALLS):
        calls, report = _validate_calls(name)
        print(
            f"{name:10s} fp={len(report.false_positives):,} calls={calls:,} "
            f"per_event={calls / report.n_events:.1f}"
        )
