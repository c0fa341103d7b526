"""Call budgets for exhaustive validation and for the delivery order.

Wall-clock gates flake; the number of calls a seeded run makes does not.
Counted with ``sys.setprofile`` as ``tests/sim/test_hot_path_budget.py``
does, but ``call`` *and* ``c_call`` events — every function the interpreter
dispatches, Python or builtin, because the old per-bit loop spent its time
in ``min``/``max``/``append``/``bit_length`` — for one ``validate()`` of a
lossy scheme against a numpy oracle, over a FIFO star(32) execution of
1,035 events.

At ``389689e`` the mismatch decode ran in the interpreter, one iteration per
mismatch bit (run this file as a script to print the figures; the
Python-level ``call`` events alone were 224,706 / 223,668 / 96,626):

==========  ===============  ========  =============  ==================
scheme      false positives  calls     calls / event  calls / event here
==========  ===============  ========  =============  ==================
hlc         108,712          662,679   640.3          8.1
lamport     108,712          661,641   639.3          7.1
plausible   46,653           284,464   274.8          4.4
==========  ===============  ========  =============  ==================

With the bulk decoder what is left is per *event* — the scheme's
precedes-matrix (a sort key per timestamp) and one ``to_bytes`` per row —
and does not grow with the number of mismatches.

The second budget is the delivery order: an execution is immutable, so the
merge behind ``Execution.delivery_order()`` runs once however many replays,
oracle builds and streamed oracles ask for it (eleven times a rep in the
``offline-nine`` workload at ``389689e``).

The third is the pairwise reference itself: ``validate_pairwise`` over m
events asks the oracle once per *ordered* pair, m·(m−1) questions (at
``3ae9261`` it asked four times per unordered pair, twice that), and its
report stays equal to ``validate``'s field for field on every pinned corpus
case.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.clocks import VectorClock, replay_one
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
from repro.topology import generators

PARENT_CALLS = {"hlc": 662_679, "lamport": 661_641, "plausible": 284_464}
#: measured 4.4-8.1 on CPython 3.11
CEILING_CALLS_PER_EVENT = 10


def _fixed_execution():
    graph = generators.star(32)
    return graph, random_execution(
        graph, random.Random(2), steps=1_024, fifo=True, deliver_all=True
    )


def _validate_calls(scheme: str):
    graph, ex = _fixed_execution()
    asg = replay_one(ex, scheme_by_name(scheme).build(graph, 0))
    oracle = HappenedBeforeOracle(ex, backend="numpy")
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = asg.validate(oracle)
    finally:
        sys.setprofile(previous)
    return calls, report


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


if __name__ == "__main__":
    for name in sorted(PARENT_CALLS):
        calls, report = _validate_calls(name)
        print(
            f"{name:10s} fp={len(report.false_positives):,} calls={calls:,} "
            f"per_event={calls / report.n_events:.1f}"
        )
