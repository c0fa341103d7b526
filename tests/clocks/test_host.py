"""The hosting protocol, on :class:`~repro.clocks.host.ClockHost` alone.

The host numbers each process's events, carries each payload from its send
to its receive by message id, hands an acknowledgement to its policy
(applied at once, or to a callback), counts and never applies a second copy
of a control, and drains each finalization with its delay in events.  A
step the clock refuses leaves the host as it was.  Driven in an
execution's delivery order with the instant policy, it is the replayer:
the same timestamps, the same events final during the run, the same
finalization delays.
"""

import random

import pytest

from repro.clocks import ClockHost, StarInlineClock, VectorClock, replay_one
from repro.conformance.registry import schemes_for
from repro.core.events import EventId
from repro.core.execution import ExecutionBuilder
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.topology import generators
from tests.helpers import fifo_execution


class _Timer:
    now = 0.0


def _state(host):
    """What a refused step must leave as it was."""
    return (
        host.n_events, dict(host.in_flight),
        [list(r) for r in host.ranks], list(host.finalized), dict(host.delays),
        host.clock.checkpoint(),
    )


def test_events_are_numbered_per_process_and_payloads_carried():
    host = ClockHost(VectorClock(3))
    assert host.local(0) == 1
    assert host.send(0, 1, 7) == 2
    assert host.in_flight == {7: (2, 0, 0)}
    assert host.receive(1, 0, 7) == 1
    assert host.in_flight == {}
    assert ([len(r) for r in host.ranks], host.n_events) == ([2, 1, 0], 3)
    assert host.clock.timestamp(EventId(1, 1)).vector == (2, 1, 0)
    # an online clock: every event final at its own step
    assert list(host.finalized) == [0, 1, 2]
    assert host.delays == {0: 3}


def test_the_instant_policy_applies_an_ack_where_it_is_made():
    host = ClockHost(StarInlineClock(3, center=0))
    host.send(1, 0, 0)
    assert not host.clock.is_final(EventId(1, 1))
    host.receive(0, 1, 0)
    assert host.clock.is_final(EventId(1, 1))
    # the centre's receive is final at once, the radial send one event on
    assert list(host.finalized) == [1, 0]
    assert host.delays == {0: 1, 1: 1}


def test_the_callback_policy_routes_an_ack_and_a_copy_is_refused():
    sent = []
    timer = _Timer()
    host = ClockHost(
        StarInlineClock(3, center=0), lambda *ctl: sent.append(ctl), timer
    )
    timer.now = 1.0
    host.send(1, 0, 0)
    host.receive(0, 1, 0)
    host.local(1)
    assert sent == [(0, 1, (0, 1, 1))]  # channel p0 -> p1: seq 0, a 1, b 1
    assert not host.clock.is_final(EventId(1, 1))
    timer.now = 2.5
    assert host.control(*sent[0]) is True
    assert host.clock.is_final(EventId(1, 1))
    assert list(host.finalized) == [1, 0]
    assert host.final_times == [1.0, 2.5]
    assert host.delays == {0: 1, 2: 1}
    before = _state(host)
    assert host.control(*sent[0]) is False
    assert host.duplicates == 1
    assert _state(host) == before


@pytest.mark.parametrize("step", ["send", "receive"])
def test_a_refused_step_leaves_nothing_numbered_carried_or_logged(step):
    host = ClockHost(StarInlineClock(3, center=0))
    host.send(1, 0, 0)
    before = _state(host)
    with pytest.raises((ValueError, TypeError)):
        if step == "send":
            host.send(1, 2, 1)  # p1 and p2 share no channel
        else:
            host.in_flight[0] = None  # a payload the clock cannot read
            host.receive(0, 1, 0)
    if step == "receive":  # the message is still in flight, as it came
        host.in_flight[0] = before[1][0]
    assert _state(host) == before
    # the right step is still the next one
    assert host.receive(0, 1, 0) == 1


def test_finish_closes_what_is_left_and_takes_the_table():
    host = ClockHost(StarInlineClock(3, center=0), lambda *ctl: None)
    builder = ExecutionBuilder(3)
    msg_id = builder.send(2, 0)
    host.send(2, 0, msg_id)
    builder.receive(0, msg_id)
    host.receive(0, 2, msg_id)
    assert not host.clock.is_final(EventId(2, 1))  # its ack was never delivered
    ran = list(host.finalized)
    asg = host.finish(builder.freeze(), [EventId(0, 1)])
    assert EventId(2, 1) in asg and len(asg) == 2
    assert asg.finalized_during_run == {EventId(0, 1)}
    # termination is not a finalization during the run: nothing drained
    assert list(host.finalized) == ran


@pytest.mark.parametrize("seed", range(4))
def test_the_instant_host_is_the_replayer(seed):
    graph = generators.random_tree(6, random.Random(seed))
    execution = fifo_execution(
        graph, random.Random(seed), steps=60, deliver_all=seed % 2 == 0
    )
    order = execution.delivery_order()
    for spec in schemes_for(graph, True):
        registry = MetricsRegistry()
        with use_registry(registry):
            asg = replay_one(execution, spec.build(graph, 0))
        host = ClockHost(spec.build(graph, 0))
        for ev in order:
            p = ev.eid.proc
            if ev.is_local:
                host.local(p)
            elif ev.is_send:
                host.send(p, ev.peer, ev.msg_id)
            else:
                host.receive(p, ev.peer, ev.msg_id)
        ids = [ev.eid for ev in order]
        final = [ids[seq] for seq in host.finalized]
        assert set(final) == asg.finalized_during_run, spec.name
        hist = registry.histogram(
            "clock.finalization_delay_events", clock=asg.algorithm.name
        )
        assert sum(host.delays.values()) == hist.count, spec.name
        assert sum(d * n for d, n in host.delays.items()) == hist.sum, spec.name
        mine = host.finish(execution, final)
        assert dict(mine.items()) == dict(asg.items()), spec.name
