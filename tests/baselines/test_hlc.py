"""Tests for Hybrid Logical Clocks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.hlc import (
    HLCTimestamp,
    HybridLogicalClock,
    counter_time_source,
)
from repro.clocks import replay_one
from repro.core import ExecutionBuilder
from repro.core.random_executions import random_execution
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators


class TestTimestamp:
    def test_lexicographic_order(self):
        a = HLCTimestamp(1.0, 0, 0)
        b = HLCTimestamp(1.0, 1, 0)
        c = HLCTimestamp(2.0, 0, 1)
        assert a.precedes(b) and b.precedes(c)
        assert not c.precedes(a)

    def test_two_elements(self):
        assert HLCTimestamp(1.0, 3, 0).n_elements == 2

    def test_cross_scheme_rejected(self):
        from repro.clocks.lamport import LamportTimestamp

        with pytest.raises(TypeError):
            HLCTimestamp(1.0, 0, 0).precedes(LamportTimestamp(1, 0))


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_consistent_on_random_executions(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(5, 0.5, rng)
        ex = random_execution(g, rng, steps=30)
        clock = HybridLogicalClock(5, counter_time_source())
        report = replay_one(ex, clock).validate()
        assert report.is_consistent

    def test_not_characterizing(self):
        b = ExecutionBuilder(2)
        b.local(0)
        b.local(1)
        ex = b.freeze()
        clock = HybridLogicalClock(2, counter_time_source())
        report = replay_one(ex, clock).validate()
        assert report.is_consistent
        assert not report.characterizes


class TestUpdateRules:
    def test_l_tracks_physical_time(self):
        """With synchronized increasing clocks, l == pt and c == 0."""
        b = ExecutionBuilder(1)
        clock = HybridLogicalClock(1, counter_time_source())
        for _ in range(4):
            ev = b.local(0)
            clock.on_local(ev)
            ts = clock.timestamp(ev.eid)
            assert ts is not None and ts.c == 0
            assert ts.l == float(ev.index)  # counter source: pt = #calls

    def test_c_increments_when_clock_stalls(self):
        """A frozen physical clock degrades HLC to a Lamport-style c."""
        frozen = lambda _p: 5.0
        b = ExecutionBuilder(1)
        clock = HybridLogicalClock(1, frozen)
        cs = []
        for _ in range(3):
            ev = b.local(0)
            clock.on_local(ev)
            cs.append(clock.timestamp(ev.eid).c)
        assert cs == [0, 1, 2]

    def test_receive_adopts_faster_sender(self):
        """A receiver with a slow clock adopts the sender's larger l."""
        times = {0: 100.0, 1: 1.0}
        source = lambda p: times[p]
        b = ExecutionBuilder(2)
        clock = HybridLogicalClock(2, source)
        m = b.send(0, 1)
        payload = clock.on_send(b.last_event(0))
        recv = b.receive(1, m)
        clock.on_receive(recv, payload)
        ts = clock.timestamp(recv.eid)
        assert ts is not None
        assert ts.l == 100.0  # adopted from sender
        assert ts.c == 1  # l == l_m branch

    def test_drift_bounded_by_skew(self):
        """l never exceeds the largest physical reading in the causal past:
        drift-from-own-clock is bounded by the inter-process skew."""
        skews = {p: 10.0 * p for p in range(4)}
        base = {"t": 0.0}
        # each process's latest reading, its largest: readings only grow
        read = [0.0] * 4

        def source(p):
            base["t"] += 0.01
            read[p] = base["t"] + skews[p]
            return read[p]

        g = generators.star(4)
        sim = Simulation(
            g, seed=1,
            clocks={"hlc": HybridLogicalClock(4, source)},
        )
        res = sim.run(UniformWorkload(events_per_process=20, p_local=0.2))
        asg = res.assignments["hlc"]
        max_skew = max(skews.values()) - min(skews.values())
        for p in range(4):
            last = asg[res.execution.events_at(p)[-1].eid]
            assert 0 <= last.l - read[p] <= max_skew + 1.0


class TestEqualPhysicalTimes:
    """Regression: ties must break on the explicit (l, c, proc) key.

    Under a frozen physical clock every event shares the same ``l``, so the
    whole order rests on the integer logical counter and the pid — exactly
    the components that ``elements()``'s float widening would blur.  Both
    comparison paths (pairwise and word-parallel matrix) must agree with
    each other and stay consistent with happened-before.
    """

    @staticmethod
    def _frozen(_proc):
        return 5.0

    def test_sort_key_is_physical_logical_pid(self):
        assert HLCTimestamp(5.0, 3, 1).sort_key() == (5.0, 3, 1)
        # logical counter beats pid; physical beats both
        assert HLCTimestamp(5.0, 2, 9).sort_key() < HLCTimestamp(5.0, 3, 0).sort_key()
        assert HLCTimestamp(4.0, 99, 9).sort_key() < HLCTimestamp(5.0, 0, 0).sort_key()

    def test_precedes_uses_sort_key(self):
        a = HLCTimestamp(5.0, 2, 9)
        b = HLCTimestamp(5.0, 3, 0)
        assert a.precedes(b)
        assert not b.precedes(a)
        # pid as the final tiebreak for identical (l, c)
        assert HLCTimestamp(5.0, 2, 0).precedes(HLCTimestamp(5.0, 2, 1))

    def test_consistent_under_frozen_clock(self):
        g = generators.star(4)
        ex = random_execution(g, random.Random(3), steps=40, deliver_all=True)
        clock = HybridLogicalClock(4, time_source=self._frozen)
        asg = replay_one(ex, clock)
        report = asg.validate_pairwise()
        assert report.is_consistent, report.false_negatives[:3]

    def test_matrix_matches_pairwise_under_frozen_clock(self):
        g = generators.star(4)
        ex = random_execution(g, random.Random(4), steps=40, deliver_all=True)
        clock = HybridLogicalClock(4, time_source=self._frozen)
        asg = replay_one(ex, clock)
        rep_m = asg.validate()
        rep_p = asg.validate_pairwise()
        assert rep_m.false_negatives == rep_p.false_negatives
        assert rep_m.false_positives == rep_p.false_positives

    def test_ties_total_order_is_deterministic(self):
        """Equal (l, c) pairs across processes order by pid, both paths."""
        ts = [HLCTimestamp(5.0, 1, p) for p in (2, 0, 1)]
        rows = HLCTimestamp.precedes_matrix(ts)
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                if i == j:
                    continue
                # bit i of rows[j]: "timestamp i precedes timestamp j"
                assert bool(rows[j] >> i & 1) == a.precedes(b)
                assert a.precedes(b) == (a.proc < b.proc)
