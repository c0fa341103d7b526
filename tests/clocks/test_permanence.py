"""Permanence: a finalized inline timestamp never changes afterwards.

This is the defining contract of inline timestamps (paper Section 1: the
timestamp is "⊥, or a permanent value that will not change subsequently").
These tests feed executions to the inline clocks step by step, snapshot
every timestamp the moment it is reported final, keep running, and verify
the terminal values equal the snapshots bit for bit.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import CoverInlineClock, StarInlineClock
from repro.core.random_executions import random_execution
from repro.sim import ControlTransport, Simulation, UniformWorkload
from repro.topology import generators


def drive_with_snapshots(execution, clock):
    """Replay with instant controls; snapshot timestamps at finalization."""
    payloads = {}
    snapshots = {}

    def drain():
        for eid in clock.drain_newly_finalized():
            assert eid not in snapshots, f"{eid} finalized twice"
            ts = clock.timestamp(eid)
            assert ts is not None, f"{eid} reported final but is ⊥"
            snapshots[eid] = ts

    for ev in execution.delivery_order():
        if ev.is_local:
            clock.on_local(ev)
        elif ev.is_send:
            payloads[ev.msg_id] = clock.on_send(ev)
        else:
            ack = clock.on_receive(ev, payloads.pop(ev.msg_id))
            if ack is not None:
                clock.on_control(ev.eid.proc, ev.peer, ack)
        drain()
    clock.finalize_at_termination()
    drain()
    return snapshots


class TestPermanence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_star_clock_timestamps_permanent(self, seed):
        g = generators.star(5)
        ex = random_execution(g, random.Random(seed), steps=35)
        clock = StarInlineClock(5)
        snapshots = drive_with_snapshots(ex, clock)
        assert set(snapshots) == {ev.eid for ev in ex.all_events()}
        for eid, snap in snapshots.items():
            assert clock.timestamp(eid) == snap

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cover_clock_timestamps_permanent(self, seed):
        g = generators.double_star(2, 2)
        ex = random_execution(g, random.Random(seed), steps=35)
        clock = CoverInlineClock(g, (0, 1))
        snapshots = drive_with_snapshots(ex, clock)
        for eid, snap in snapshots.items():
            assert clock.timestamp(eid) == snap

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_permanence_under_simulation_with_delays(self, seed):
        """Same contract with real control-channel delays and piggyback."""
        g = generators.star(5)
        for transport in ControlTransport:
            sim = Simulation(
                g,
                seed=seed,
                clocks={"inline": StarInlineClock(5)},
                control_transport=transport,
            )
            res = sim.run(UniformWorkload(events_per_process=10))
            asg = res.assignments["inline"]
            # every event finalized during the run must carry, at the end,
            # a timestamp consistent with its recorded finalization: since
            # post only shrinks via FIFO-resequenced firsts, terminal ==
            # first-final; validated indirectly via exactness
            assert asg.validate().characterizes
