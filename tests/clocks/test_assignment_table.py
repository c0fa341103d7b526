"""``TimestampAssignment`` is a table that still reads like the old map.

Until ``e71ddf4`` the end of a run built ``{event id: timestamp}`` — every
non-``⊥`` event, process-major — and the assignment answered from that dict.
It now keeps one list per process and reads the algorithm once; this builds
the old dict beside it, for every registered scheme and with ``⊥`` holes
left in (``finalize=False``), and checks the whole facade against it.
"""

import random

import pytest

from repro.clocks import replay_one
from repro.conformance.registry import all_schemes
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators

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
            for cm in clock.on_receive(ev, payloads.pop(ev.msg_id)):
                clock.on_control(cm.src, cm.dst, cm.payload)
        seen.update(clock.drain_newly_finalized())
    return seen


@pytest.mark.parametrize("finalize", [True, False], ids=["final", "holes"])
@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_the_table_answers_as_the_dict_did(spec, finalize):
    graph = generators.star(N)
    execution = random_execution(
        graph, random.Random(11), steps=80, fifo=True, deliver_all=True
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
    k = max(1, execution.max_events_per_process())
    bits = [algo.timestamp_bits(ts, k) for ts in old.values()]
    assert sum(n * c for n, c in asg.bit_tally.items()) == sum(bits)
    assert sum(asg.element_tally.values()) == len(old)
