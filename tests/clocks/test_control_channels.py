"""One resequencer orders each control channel of both inline clocks.

The paper needs the control channels FIFO; :class:`InlineClock` simulates
them: it applies a channel's acknowledgements in ``seq`` order, holds early
ones, and refuses a second copy.  Here a seeded execution's controls are
held back and then delivered in a random order across all channels, with
copies inserted.  Once every original has arrived, the clock must have
stamped every event exactly as a twin that got each channel in order, and
finalized the same events; every copy — of a control already applied or of
one still held — raises :class:`DuplicateControl` and leaves the clock's
checkpoint byte for byte as it was.
"""

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.clocks import CoverInlineClock, DuplicateControl, StarInlineClock
from repro.core.random_executions import random_execution
from repro.topology import generators

CLOCKS = {
    "star": (generators.star(5), lambda g: StarInlineClock(5, center=0)),
    # two cover processes, so a non-cover one has two channels to wait on
    "cover": (generators.double_star(2, 3), CoverInlineClock),
    "cover-path": (generators.path(6), lambda g: CoverInlineClock(g, (1, 3, 5))),
}


def _run_holding_controls(clock, execution):
    """Drive *clock* over *execution*, delivering no control; returns the
    controls ``(src, dst, payload)`` in the order they were emitted."""
    payloads, held = {}, []
    for ev in execution.delivery_order():
        p, k = ev.eid.proc, ev.eid.index
        if ev.is_local:
            clock.record_local(p, k)
        elif ev.is_send:
            payloads[ev.msg_id] = clock.record_send(p, k, ev.peer)
        else:
            ack = clock.record_receive(p, k, ev.peer, payloads.pop(ev.msg_id))
            if ack is not None:
                held.append((p, ev.peer, ack))
    clock.drain_newly_finalized()
    return held


@pytest.mark.parametrize("name", sorted(CLOCKS))
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    order_seed=st.integers(0, 2**16),
    copies=st.integers(1, 12),
)
def test_any_arrival_order_applies_each_control_once_in_channel_order(
    name, seed, order_seed, copies
):
    graph, build = CLOCKS[name]
    # an odd seed leaves some messages undelivered
    execution = random_execution(
        graph, random.Random(seed), steps=40, deliver_all=seed % 2 == 0
    )
    in_order, shuffled = build(graph), build(graph)
    held = _run_holding_controls(in_order, execution)
    assert _run_holding_controls(shuffled, execution) == held

    # the reference: every channel in seq order (emission order is that)
    for src, dst, ack in held:
        in_order.on_control(src, dst, ack)
    want = sorted(in_order.drain_newly_finalized())

    rng = random.Random(order_seed)
    arrivals = list(held) + [rng.choice(held) for _ in range(copies if held else 0)]
    rng.shuffle(arrivals)
    arrived = set()  # (src, dst, seq) already applied or held
    got = []
    for src, dst, ack in arrivals:
        key = (src, dst, ack[0])
        if key in arrived:
            applied = ack[0] < shuffled._ctrl_seq_in[(src, dst)]
            event("copy of an applied control" if applied else "copy of a held control")
            before = shuffled.checkpoint()
            with pytest.raises(DuplicateControl):
                shuffled.on_control(src, dst, ack)
            assert shuffled.checkpoint() == before
            continue
        arrived.add(key)
        shuffled.on_control(src, dst, ack)
        got.extend(shuffled.drain_newly_finalized())

    assert shuffled._stamps == in_order._stamps
    assert sorted(got) == want
    assert all(not buf for buf in shuffled._ctrl_buffer.values())
    # nothing is left for the termination flush to apply
    assert shuffled.finalize_at_termination() == in_order.finalize_at_termination()
    assert shuffled._stamps == in_order._stamps
