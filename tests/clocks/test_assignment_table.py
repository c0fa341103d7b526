"""``TimestampAssignment`` is a table that still reads like the old map.

Until ``e71ddf4`` the end of a run built ``{event id: timestamp}`` — every
non-``⊥`` event, process-major — and the assignment answered from that dict.
It now keeps one list per process and reads the algorithm once; this builds
the old dict beside it, for every registered scheme and with ``⊥`` holes
left in (``finalize=False``), and checks the whole facade against it.
"""

import random
from collections import Counter

import pytest

from repro.clocks import TimestampAssignment, replay_one
from repro.conformance.registry import all_schemes
from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.events import EventId
from repro.core.random_executions import (
    execution_from_ops,
    random_ops,
)
from repro.topology import generators
from tests.helpers import fifo_execution

#: a FIFO star: the one shape on which every registered scheme is legal
N = 5
CENTER = 0


def _finalized_in_run(clock, execution):
    """What the replayer's loop drains, from an instance driven by hand."""
    payloads, seen = {}, set()
    for ev in execution.delivery_order():
        if ev.is_local:
            clock.on_local(ev)
        elif ev.is_send:
            payloads[ev.msg_id] = clock.on_send(ev)
        else:
            ack = clock.on_receive(ev, payloads.pop(ev.msg_id))
            if ack is not None:
                clock.on_control(ev.eid.proc, ev.peer, ack)
        seen.update(clock.drain_newly_finalized())
    return seen


@pytest.mark.parametrize("finalize", [True, False], ids=["final", "holes"])
@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_the_table_answers_as_the_dict_did(spec, finalize):
    graph = generators.star(N)
    execution = fifo_execution(
        graph, random.Random(11), steps=80, deliver_all=True
    )
    asg = replay_one(execution, spec.build(graph, CENTER), finalize=finalize)
    algo = asg.algorithm
    old = {}
    for ev in execution.all_events():
        ts = algo.timestamp(ev.eid)
        if ts is not None:
            old[ev.eid] = ts
    holes = [ev.eid for ev in execution.all_events() if ev.eid not in old]
    assert bool(holes) == (spec.inline and not finalize)

    assert len(asg) == len(old)
    assert list(asg.items()) == list(old.items())
    for eid, ts in old.items():
        assert eid in asg
        assert asg[eid] == ts
    unknown = [EventId(N, 1), EventId(1, execution.n_events + 1)]
    for eid in holes + unknown:
        assert eid not in asg
        with pytest.raises(KeyError):
            asg[eid]
    widths = [ts.n_elements for ts in old.values()]
    assert asg.max_elements() == max(widths)
    assert asg.mean_elements() == sum(widths) / len(widths)
    assert asg.finalized_during_run == _finalized_in_run(
        spec.build(graph, CENTER), execution
    )
    # the bit tally is derived from the widths (``encoded``: stamp by stamp);
    # either way it is what asking ``timestamp_bits`` of every stamp gives
    k = max(1, execution.max_events_per_process())
    assert asg.element_tally == Counter(widths)
    assert asg.bit_tally == Counter(
        algo.timestamp_bits(ts, k) for ts in old.values()
    )


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_the_table_is_a_copy_and_only_of_this_execution(spec):
    """The assignment takes the scheme's own table when that is what asking
    event by event would return, and a copy of it: a clock that finalizes
    afterwards does not reach into an assignment already made, and a clock
    that has seen more than the assignment's execution is asked instead."""
    graph = generators.star(N)
    ops = random_ops(
        graph, random.Random(11), steps=80, fifo=True, deliver_all=True
    )
    execution = execution_from_ops(graph, ops)
    asg = replay_one(execution, spec.build(graph, CENTER), finalize=False)
    algo = asg.algorithm
    before = list(asg.items())
    algo.finalize_at_termination()
    assert list(asg.items()) == before
    assert all(algo.timestamp(ev.eid) is not None for ev in execution.all_events())

    prefix = execution_from_ops(graph, ops[: len(ops) // 2])
    shorter = TimestampAssignment(algo, prefix, ())
    assert len(shorter) == prefix.n_events < execution.n_events
    assert dict(shorter.items()) == {
        ev.eid: algo.timestamp(ev.eid) for ev in prefix.all_events()
    }


@pytest.mark.parametrize("backend", ["pure", "numpy"])
@pytest.mark.parametrize(
    "spec",
    [spec for spec in all_schemes() if spec.inline],
    ids=lambda spec: spec.name,
)
def test_validate_names_the_first_bottom_event(spec, backend):
    """``validate`` reads the table by position only when no event is ⊥;
    with a hole it raises ``KeyError`` for the first ⊥ event in the
    oracle's order, whole or for a subset, as a lookup per event did, and
    so does the pairwise reference."""
    if backend == "numpy" and not numpy_available():
        pytest.skip("requires numpy >= 2.0")
    graph = generators.star(N)
    execution = fifo_execution(
        graph, random.Random(11), steps=80, deliver_all=True
    )
    asg = replay_one(execution, spec.build(graph, CENTER), finalize=False)
    oracle = HappenedBeforeOracle(execution, backend=backend)
    holes = [eid for eid in oracle.event_order if eid not in asg]
    assert holes and len(asg) + len(holes) == execution.n_events
    with pytest.raises(KeyError) as whole:
        asg.validate(oracle)
    assert whole.value.args == (holes[0],)
    with pytest.raises(KeyError) as pairwise:
        asg.validate_pairwise(oracle)
    assert pairwise.value.args == (holes[0],)
    subset = [eid for eid in oracle.event_order if eid in asg][:5] + holes[-1:]
    with pytest.raises(KeyError) as part:
        asg.validate(oracle, subset)
    assert part.value.args == (holes[-1],)
    full = replay_one(execution, spec.build(graph, CENTER))
    assert full.validate(oracle) == full.validate_pairwise(oracle)
