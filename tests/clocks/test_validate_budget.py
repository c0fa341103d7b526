"""Call budgets for exhaustive validation and for the delivery order.

Wall-clock gates flake; the number of calls a seeded run makes does not.
Counted with ``sys.setprofile`` as ``tests/sim/test_hot_path_budget.py``
does, but ``call`` *and* ``c_call`` events — every function the interpreter
dispatches, Python or builtin, because the old per-bit loop spent its time
in ``min``/``max``/``append``/``bit_length`` — for one ``validate()`` of a
lossy scheme against a numpy oracle, over a FIFO star(32) execution of
1,035 events.  The count follows one uncounted ``validate()`` on objects of
its own (the first in a process pays for lazy imports) and runs with the
collector off, so it is the same alone, after other tests and twice in one
process.

At ``389689e`` the mismatch decode ran in the interpreter, one iteration per
mismatch bit (run this file as a script to print the figures; the
Python-level ``call`` events alone were 224,706 / 223,668 / 96,626):

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

The third is the pairwise reference itself: ``validate_pairwise`` over m
events asks the oracle once per *ordered* pair, m·(m−1) questions (at
``3ae9261`` it asked four times per unordered pair, twice that), and its
report stays equal to ``validate``'s field for field on every pinned corpus
case.

The fourth is sampled validation, in Python-level calls (``call`` events
only, as the simulator's budget counts) per sampled pair: 2,000 pairs of the
hot-path budget's run — the 3/4/16 sequencer graph, 100 events per process,
seed 7 — against its frozen streamed oracle.  At ``e71ddf4`` a pair cost
28.4 (inline-cover) and 42.3 (vector) calls: ``random.sample``'s argument
checks, four timestamp lookups by hashed event id, a generator resumed per
vector component.  Drawn by position, each stamp fetched once and vectors
compared by ``all(map(le, a, b))`` it costs 10.1 and 12.8.
"""

import gc
import random
import sys
from pathlib import Path

import pytest

from repro.clocks import CoverInlineClock, VectorClock, replay_one
from repro.conformance.corpus import load_corpus
from repro.conformance.registry import (
    scheme_by_name,
    schemes_for,
    star_center_of,
)
from repro.core import (
    Execution,
    HappenedBeforeOracle,
    incremental_from_execution,
)
from repro.core.backend import numpy_available
from repro.core.random_executions import execution_from_ops, random_execution
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators

PARENT_CALLS = {"hlc": 662_679, "lamport": 661_641, "plausible": 284_464}
#: measured 2.79-6.36 (plausible 2,885, lamport 5,549, hlc 6,584 calls) on
#: CPython 3.11, the same alone, after ``tests/core`` and twice in one
#: process, + 5 %.  Counted without the warm-up and with the collector on it
#: was 2.7-6.5 alone and 3.1-7.0 after ``tests/core`` (hypothesis's
#: ``gc.callbacks`` hook ran inside the count), and 3.7-7.5 / 3.9-8.0 while
#: ``validate`` fetched each timestamp by event id
CEILING_CALLS_PER_EVENT = 6.7
#: calls per sampled pair at ``e71ddf4``, and the ceiling: 10.1 / 12.8
#: measured on CPython 3.11 and 3.12, + 5 %
SAMPLED_PARENT_CALLS_PER_PAIR = {"inline-cover": 28.4, "vector": 42.3}
SAMPLED_CEILING_CALLS_PER_PAIR = {"inline-cover": 10.6, "vector": 13.4}
SAMPLED_PAIRS = 2_000


def _fixed_execution():
    graph = generators.star(32)
    return graph, random_execution(
        graph, random.Random(2), steps=1_024, fifo=True, deliver_all=True
    )


def _count_calls(fn, kinds):
    """``(profile events of *kinds* during fn(), fn()'s result)``, with the
    collector off: a collection would run whatever ``gc.callbacks`` hold
    (hypothesis installs one) inside the count."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event in kinds:
            calls += 1

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, result


def _validate_calls(scheme: str):
    def validate():
        graph, ex = _fixed_execution()
        asg = replay_one(ex, scheme_by_name(scheme).build(graph, 0))
        oracle = HappenedBeforeOracle(ex, backend="numpy")
        return lambda: asg.validate(oracle)

    # one uncounted run on objects of its own first: the first in a process
    # pays for lazy imports, which the count is not about
    validate()()
    return _count_calls(validate(), ("call", "c_call"))


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
    asked = 0

    def happened_before(self, e, f):
        self.asked += 1
        return super().happened_before(e, f)


@pytest.mark.parametrize(
    "case",
    load_corpus(Path(__file__).parent.parent / "conformance" / "corpus"),
    ids=lambda case: case.name,
)
def test_pairwise_reference_asks_once_per_ordered_pair(case):
    graph = case.graph()
    execution = execution_from_ops(graph, case.ops)
    specs = (
        [scheme_by_name(name) for name in case.schemes]
        if case.schemes is not None
        else schemes_for(graph, case.fifo)
    )
    m = execution.n_events
    for spec in specs:
        asg = replay_one(
            execution, spec.build(graph, star_center_of(graph) or 0)
        )
        oracle = _CountingOracle(execution)
        pairwise = asg.validate_pairwise(oracle)
        assert oracle.asked == m * (m - 1), spec.name
        assert pairwise == asg.validate(oracle), spec.name


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
        calls, report = _count_calls(
            lambda: asg.validate_sampled(oracle, n_pairs=SAMPLED_PAIRS, seed=7),
            ("call",),
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
