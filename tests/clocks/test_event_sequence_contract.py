"""Events reach a clock in index order, for every registered scheme.

A host hands a clock the events of each process in the order they occur:
index 1, 2, 3, ...  The inline schemes always refused anything else
(``event index 5 does not match local counter 1``); the seven online
schemes keyed their timestamps by event id and took whatever came — a gap
left a hole at ``⊥``, a repeated id silently replaced a timestamp that was
already final.  One positional helper records for all seven now, and it
raises the inline schemes' error.

A clock step is three integers — ``record_local(p, k)``, ``record_send(p,
k, peer)``, ``record_receive(p, k, peer, payload)`` — and ``on_local`` /
``on_send`` / ``on_receive`` pass an ``Event``'s integers on.  Both ways
must record the same run, and each step must check the index (and, where
the scheme knows the graph, the peer) before it moves any state.
"""

import random

import pytest

from repro.conformance.registry import all_schemes
from repro.core.events import Event, EventId, EventKind
from repro.topology import generators
from tests.helpers import fifo_execution

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
            ack = clock.on_receive(ev, payloads.pop(ev.msg_id))
            if ack is not None:
                clock.on_control(ev.eid.proc, ev.peer, ack)
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
    execution = fifo_execution(
        graph, random.Random(3), steps=60, deliver_all=True
    )
    order = execution.delivery_order()
    refused, twin = spec.build(graph, CENTER), spec.build(graph, CENTER)
    assert _drive(refused, order, {}, refuse_first=True) == _drive(twin, order, {})
    refused.finalize_at_termination()
    twin.finalize_at_termination()
    for ev in order:
        assert refused.timestamp(ev.eid) == twin.timestamp(ev.eid)
        assert refused.timestamp(ev.eid) is not None


def _step(clock, ev, payload):
    """*ev* through the clock's integer step."""
    p, k = ev.eid.proc, ev.eid.index
    if ev.is_local:
        return clock.record_local(p, k)
    if ev.is_send:
        return clock.record_send(p, k, ev.peer)
    return clock.record_receive(p, k, ev.peer, payload)


def _adapter(clock, ev, payload):
    """*ev* through the ``Event`` adapter."""
    if ev.is_local:
        return clock.on_local(ev)
    if ev.is_send:
        return clock.on_send(ev)
    return clock.on_receive(ev, payload)


def _record(clock, order, hook):
    """Drive *clock* over *order* through *hook*, controls delivered at
    once; per event, what the hook returned and what the event finalized."""
    payloads, trace = {}, []
    for ev in order:
        out = hook(clock, ev, payloads.pop(ev.msg_id) if ev.is_receive else None)
        if ev.is_send:
            payloads[ev.msg_id] = out
        elif ev.is_receive and out is not None:
            clock.on_control(ev.eid.proc, ev.peer, out)
        trace.append((out, clock.drain_newly_finalized()))
    return trace


def _executions(spec):
    graph = generators.star(N)
    for seed in range(4):
        # a lossy run leaves gaps in vector-sk's per-channel diff sequence
        deliver_all = spec.requires_fifo or seed % 2 == 0
        yield graph, fifo_execution(
            graph, random.Random(seed), steps=60, deliver_all=deliver_all
        )


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_the_integer_step_and_the_event_adapter_record_the_same_run(spec):
    for graph, execution in _executions(spec):
        order = execution.delivery_order()
        by_step, by_event = spec.build(graph, CENTER), spec.build(graph, CENTER)
        assert _record(by_step, order, _step) == _record(by_event, order, _adapter)
        assert by_step._stamps == by_event._stamps
        assert by_step.finalize_at_termination() == by_event.finalize_at_termination()
        assert by_step._stamps == by_event._stamps


def _refused(clock, call, match):
    """*call* raises ``ValueError`` and leaves every bit of state as it was."""
    before = clock.checkpoint()
    with pytest.raises(ValueError, match=match):
        call()
    assert clock.checkpoint() == before


def _wrong_peer(p):
    """A process *p* shares no channel with on the star."""
    return CENTER if p == CENTER else 1 + p % (N - 1)


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_each_step_checks_before_it_moves_anything(spec):
    """Check first, mutate second, on integers: before every local, send
    and receive of a run, the step is offered the index after next and the
    one before — and, for the schemes that know the graph, the right index
    with a peer off the graph; every refusal leaves the clock byte for byte
    as it was (its checkpoint), and the run then records as it does
    without them."""
    graph_aware = spec.name in ("inline-star", "inline-cover")
    for graph, execution in _executions(spec):
        order = execution.delivery_order()
        clock = spec.build(graph, CENTER)
        payloads = {}
        for ev in order:
            p, k, peer = ev.eid.proc, ev.eid.index, ev.peer
            payload = payloads.get(ev.msg_id)
            for wrong in (k + 1, k - 1):
                if wrong >= 1:
                    bad = Event(EventId(p, wrong), ev.kind, ev.msg_id, peer)
                    _refused(
                        clock, lambda: _step(clock, bad, payload),
                        "does not match local counter",
                    )
            if graph_aware and not ev.is_local:
                off = _wrong_peer(p)
                if ev.is_send:
                    call = lambda: clock.record_send(p, k, off)  # noqa: E731
                else:
                    call = lambda: clock.record_receive(p, k, off, payload)  # noqa: E731
                _refused(clock, call, "violates")
            out = _step(clock, ev, payloads.pop(ev.msg_id, None))
            if ev.is_send:
                payloads[ev.msg_id] = out
            elif ev.is_receive and out is not None:
                clock.on_control(p, peer, out)
        twin = spec.build(graph, CENTER)
        _record(twin, order, _step)
        assert clock._stamps == twin._stamps
