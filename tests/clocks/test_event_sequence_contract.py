"""Events reach a clock in index order, for every registered scheme.

A host hands a clock the events of each process in the order they occur:
index 1, 2, 3, ...  The inline schemes always refused anything else
(``event index 5 does not match local counter 1``); the seven online
schemes keyed their timestamps by event id and took whatever came — a gap
left a hole at ``⊥``, a repeated id silently replaced a timestamp that was
already final.  One positional helper records for all seven now, and it
raises the inline schemes' error.
"""

import random

import pytest

from repro.conformance.registry import all_schemes
from repro.core.events import Event, EventId, EventKind
from repro.core.random_executions import random_execution
from repro.topology import generators

#: a star: the one shape on which every registered scheme is legal
N = 5
CENTER = 0


def _local(proc, index):
    return Event(EventId(proc, index), EventKind.LOCAL)


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_gap_is_refused(spec):
    clock = spec.build(generators.star(N), CENTER)
    with pytest.raises(
        ValueError, match="event index 5 does not match local counter 1"
    ):
        clock.on_local(_local(1, 5))
    assert clock.drain_newly_finalized() == []


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_repeat_does_not_replace_a_final_timestamp(spec):
    clock = spec.build(generators.star(N), CENTER)
    # the centre's events are final at once under every scheme
    first = EventId(CENTER, 1)
    clock.on_local(_local(CENTER, 1))
    assert clock.is_final(first)
    stamped = clock.timestamp(first)
    with pytest.raises(
        ValueError, match="event index 1 does not match local counter 2"
    ):
        clock.on_local(_local(CENTER, 1))
    assert clock.timestamp(first) == stamped


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_process_outside_the_system_is_refused(spec):
    clock = spec.build(generators.star(N), CENTER)
    with pytest.raises((ValueError, IndexError)):
        clock.on_local(_local(N, 1))
    assert clock.drain_newly_finalized() == []


def _drive(clock, events, payloads, refuse_first=False):
    """Feed *events* to *clock* (controls delivered at once); returns the
    send payloads.  With *refuse_first*, every event is preceded by a gap
    and a repeat of itself, which the clock must refuse."""
    sent = {}
    for ev in events:
        if refuse_first:
            for index in (ev.eid.index + 3, ev.eid.index - 1):
                if index < 1:
                    continue
                wrong = Event(EventId(ev.proc, index), ev.kind, ev.msg_id, ev.peer)
                with pytest.raises(ValueError, match="does not match local counter"):
                    if ev.is_local:
                        clock.on_local(wrong)
                    elif ev.is_send:
                        clock.on_send(wrong)
                    else:
                        clock.on_receive(wrong, payloads[ev.msg_id])
        if ev.is_local:
            clock.on_local(ev)
        elif ev.is_send:
            sent[ev.msg_id] = payloads[ev.msg_id] = clock.on_send(ev)
        else:
            for cm in clock.on_receive(ev, payloads.pop(ev.msg_id)):
                clock.on_control(cm.src, cm.dst, cm.payload)
    return sent


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_refused_event_leaves_the_clock_as_it_was(spec):
    """Check first, mutate second.  Until ``315f754`` every scheme advanced
    its counter and then checked the index: ``VectorClock(3)`` stamped the
    event after a refused one ``(0, 3, 0)``, the inline schemes refused the
    right next event forever.  Here every local, send and receive of a run
    is preceded by a gap and a repeat; the refused clock must go on to give
    every event the timestamp, and every message the payload, that a twin
    which was never offered a wrong event gives."""
    graph = generators.star(N)
    execution = random_execution(
        graph, random.Random(3), steps=60, fifo=True, deliver_all=True
    )
    order = execution.delivery_order()
    refused, twin = spec.build(graph, CENTER), spec.build(graph, CENTER)
    assert _drive(refused, order, {}, refuse_first=True) == _drive(twin, order, {})
    refused.finalize_at_termination()
    twin.finalize_at_termination()
    for ev in order:
        assert refused.timestamp(ev.eid) == twin.timestamp(ev.eid)
        assert refused.timestamp(ev.eid) is not None
