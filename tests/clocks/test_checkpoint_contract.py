"""The checkpoint contract, for every registered scheme.

``ClockAlgorithm.checkpoint()`` is what the fuzzer's prefix check, the chaos
harness, the simulator's crash instants and the live supervisor all lean on:
a snapshot is self-contained (later mutation of the live clock cannot reach
it), restoring it does not consume it, and every timestamp that was final
when it was taken reads back equal from a restored instance.  The default
implementation is one serialisation pass each way; this pins the contract
rather than the mechanism (a snapshot is opaque: two snapshots of equal
states need not compare equal).
"""

import random

import pytest

from repro.conformance.registry import all_schemes
from repro.core.random_executions import random_execution
from repro.topology import generators

#: a FIFO star: the one shape on which every registered scheme is legal
N = 5
CENTER = 0


def _drive(clock, events, payloads):
    for ev in events:
        if ev.is_local:
            clock.on_local(ev)
        elif ev.is_send:
            payloads[ev.msg_id] = clock.on_send(ev)
        else:
            ack = clock.on_receive(ev, payloads.pop(ev.msg_id))
            if ack is not None:
                clock.on_control(ev.eid.proc, ev.peer, ack)


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_snapshot_is_self_contained_and_restorable_twice(spec):
    graph = generators.star(N)
    execution = random_execution(
        graph, random.Random(7), steps=60, fifo=True, deliver_all=True
    )
    order = execution.delivery_order()
    half = len(order) // 2

    live = spec.build(graph, CENTER)
    payloads = {}
    _drive(live, order[:half], payloads)
    snapshot = live.checkpoint()
    in_flight = dict(payloads)
    final_then = {
        ev.eid: live.timestamp(ev.eid)
        for ev in order[:half] if live.is_final(ev.eid)
    }
    assert final_then, "nothing was final at the snapshot: a vacuous check"

    # mutate the live clock: the snapshot must not follow it
    _drive(live, order[half:], payloads)
    live.finalize_at_termination()
    at_the_end = {ev.eid: live.timestamp(ev.eid) for ev in order}

    # two fresh instances from the one snapshot; each is mutated in turn —
    # carried to the end of the run, where it must agree with the clock
    # that never stopped — so the second restore sees a used snapshot
    for _ in range(2):
        restored = spec.build(graph, CENTER)
        restored.restore(snapshot)
        for eid, ts in final_then.items():
            assert restored.is_final(eid)
            assert restored.timestamp(eid) == ts
        _drive(restored, order[half:], dict(in_flight))
        restored.finalize_at_termination()
        after = {ev.eid: restored.timestamp(ev.eid) for ev in order}
        if spec.name == "hlc":
            # its time source is the host's, kept by the instance and not
            # in the snapshot: a fresh instance reads another clock
            assert after.keys() == at_the_end.keys()
        else:
            assert after == at_the_end


@pytest.mark.parametrize(
    "spec",
    [spec for spec in all_schemes() if spec.inline],
    ids=lambda spec: spec.name,
)
def test_open_entries_survive_a_snapshot(spec):
    """An inline scheme keeps, per event still at ``⊥``, only what is
    provisional; the timestamp is built when the event closes.  A snapshot
    taken while entries are open must carry them: the restored instance
    closes the same events in the same order when the held-back
    acknowledgements arrive, and finalizes the rest to the same timestamps
    at termination."""
    graph = generators.star(N)
    execution = random_execution(
        graph, random.Random(7), steps=60, fifo=True, deliver_all=True
    )
    live = spec.build(graph, CENTER)
    payloads, held = {}, []
    for ev in execution.delivery_order():
        if ev.is_local:
            live.on_local(ev)
        elif ev.is_send:
            payloads[ev.msg_id] = live.on_send(ev)
        else:
            ack = live.on_receive(ev, payloads.pop(ev.msg_id))
            if ack is not None:
                held.append((ev.eid.proc, ev.peer, ack))
    ids = [ev.eid for ev in execution.all_events()]
    still_open = [eid for eid in ids if live.timestamp(eid) is None]
    assert still_open and held, "nothing was open at the snapshot"
    live.drain_newly_finalized()

    restored = spec.build(graph, CENTER)
    restored.restore(live.checkpoint())
    for eid in ids:
        assert restored.timestamp(eid) == live.timestamp(eid)

    # half of the acknowledgements arrive, the run ends for the rest
    for clock in (live, restored):
        for src, dst, ack in held[: len(held) // 2]:
            clock.on_control(src, dst, ack)
    closed = live.drain_newly_finalized()
    assert closed and closed == restored.drain_newly_finalized()
    assert live.finalize_at_termination() == restored.finalize_at_termination()
    for eid in ids:
        ts = live.timestamp(eid)
        assert ts is not None and ts == restored.timestamp(eid)
        assert live.timestamp(eid) is ts  # built once, read ever after
