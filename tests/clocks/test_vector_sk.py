"""Tests for Singhal–Kshemkalyani differential vector clocks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import SKVectorClock, VectorClock, replay, replay_one
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators
from tests.helpers import fifo_execution


class TestEquivalenceWithPlainVectorClock:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_timestamps_on_fifo_executions(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(5, 0.4, rng)
        ex = fifo_execution(g, rng, steps=40)
        sk, plain = replay(ex, [SKVectorClock(5), VectorClock(5)])
        for ev in ex.all_events():
            assert sk[ev.eid].vector == plain[ev.eid].vector

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_characterizes(self, seed):
        rng = random.Random(seed)
        g = generators.star(5)
        ex = fifo_execution(g, rng, steps=30)
        assert replay_one(ex, SKVectorClock(5)).validate().characterizes


class TestCompression:
    def test_repeated_channel_sends_shrink(self):
        """Second message on the same channel carries only changed entries."""
        b = ExecutionBuilder(4)
        clock = SKVectorClock(4)
        m1 = b.send(0, 1)
        p1 = clock.on_send(b.last_event(0))
        m2 = b.send(0, 1)
        p2 = clock.on_send(b.last_event(0))
        # first message: one nonzero entry; second: only entry 0 changed
        assert p1[1] == ((0, 1),)
        assert p2[1] == ((0, 2),)
        assert clock.payload_elements(p1) == 3  # seq + 1 pair
        assert clock.payload_elements(p2) == 3

    def test_fresh_channel_sends_full_knowledge(self):
        b = ExecutionBuilder(3)
        clock = SKVectorClock(3)
        m1 = b.send(0, 1)
        clock.on_send(b.last_event(0))
        r = b.receive(1, m1)
        clock.on_receive(r, (0, ((0, 1),)))
        m2 = b.send(1, 2)
        payload = clock.on_send(b.last_event(1))
        # p1 knows entries 0 and 1; both are new on channel 1->2
        assert dict(payload[1]) == {0: 1, 1: 2}

    def test_mean_diff_entries_below_n_under_pairwise_traffic(self):
        g = generators.star(8)
        sim = Simulation(
            g, seed=5, clocks={"sk": SKVectorClock(8)}, fifo_app_channels=True
        )
        res = sim.run(UniformWorkload(events_per_process=25, p_local=0.1))
        sk = res.assignments["sk"].algorithm
        assert isinstance(sk, SKVectorClock)
        assert 0 < sk.mean_diff_entries < 8


class TestFifoRequirement:
    def test_out_of_order_diff_rejected(self):
        b = ExecutionBuilder(2)
        clock = SKVectorClock(2)
        m1 = b.send(0, 1)
        p1 = clock.on_send(b.last_event(0))
        m2 = b.send(0, 1)
        p2 = clock.on_send(b.last_event(0))
        r2 = b.receive(1, m2)
        with pytest.raises(ValueError, match="FIFO"):
            clock.on_receive(r2, p2)  # seq 1 arrives before seq 0

    def test_simulation_with_fifo_channels(self):
        g = generators.double_star(2, 3)
        sim = Simulation(
            g,
            seed=9,
            clocks={"sk": SKVectorClock(g.n_vertices),
                    "vc": VectorClock(g.n_vertices)},
            fifo_app_channels=True,
        )
        res = sim.run(UniformWorkload(events_per_process=15))
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["sk"].validate(oracle).characterizes
        for ev in res.execution.all_events():
            assert (
                res.assignments["sk"][ev.eid].vector
                == res.assignments["vc"][ev.eid].vector
            )
