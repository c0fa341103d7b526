"""Tests for the incremental finalized-cut monitor."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.applications.monitor import FinalizedCutMonitor, cut_evolution
from repro.clocks import StarInlineClock, VectorClock
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.cuts import is_consistent, max_consistent_cut_within
from repro.core.events import Event, EventId, EventKind
from repro.sim import ConstantDelay, Simulation, UniformWorkload
from repro.topology import generators


class TestMonitorBasics:
    def test_empty(self):
        m = FinalizedCutMonitor(3)
        assert m.cut == (0, 0, 0)
        assert m.events_in_cut == 0

    def test_local_event_enters_when_finalized(self):
        m = FinalizedCutMonitor(2)
        ev = Event(EventId(0, 1), EventKind.LOCAL)
        m.on_event(ev)
        assert m.cut == (0, 0)  # not finalized yet
        m.on_finalized(ev.eid)
        assert m.cut == (1, 0)

    def test_receive_waits_for_send(self):
        m = FinalizedCutMonitor(2)
        send = Event(EventId(0, 1), EventKind.SEND, msg_id=0, peer=1)
        recv = Event(EventId(1, 1), EventKind.RECEIVE, msg_id=0, peer=0)
        m.on_event(send)
        m.on_event(recv, send_eid=send.eid)
        m.on_finalized(recv.eid)
        assert m.cut == (0, 0)  # recv finalized but send not admitted
        m.on_finalized(send.eid)
        assert m.cut == (1, 1)  # cascade admits the receive

    def test_local_order_gating(self):
        m = FinalizedCutMonitor(1)
        e1 = Event(EventId(0, 1), EventKind.LOCAL)
        e2 = Event(EventId(0, 2), EventKind.LOCAL)
        m.on_event(e1)
        m.on_event(e2)
        m.on_finalized(e2.eid)
        assert m.cut == (0,)
        m.on_finalized(e1.eid)
        assert m.cut == (2,)

    def test_duplicate_notifications_rejected(self):
        m = FinalizedCutMonitor(1)
        ev = Event(EventId(0, 1), EventKind.LOCAL)
        m.on_event(ev)
        with pytest.raises(ValueError):
            m.on_event(ev)
        m.on_finalized(ev.eid)
        with pytest.raises(ValueError):
            m.on_finalized(ev.eid)

    def test_receive_needs_send_eid(self):
        m = FinalizedCutMonitor(2)
        recv = Event(EventId(1, 1), EventKind.RECEIVE, msg_id=0, peer=0)
        with pytest.raises(ValueError):
            m.on_event(recv)

    def test_local_must_not_carry_send(self):
        m = FinalizedCutMonitor(2)
        ev = Event(EventId(0, 1), EventKind.LOCAL)
        with pytest.raises(ValueError):
            m.on_event(ev, send_eid=EventId(1, 1))


class TestEquivalenceWithRecompute:
    """The incremental cut must equal the oracle-based recomputation after
    every notification (the DESIGN.md ablation's correctness side)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_max_consistent_cut(self, seed):
        rng = random.Random(seed)
        g = generators.star(4)
        from repro.core.random_executions import random_execution

        ex = random_execution(g, rng, steps=25)
        oracle = HappenedBeforeOracle(ex)
        monitor = FinalizedCutMonitor(4)
        # notify all structure, then finalize in random order
        for ev in ex.delivery_order():
            send_eid = ex.send_of(ev).eid if ev.is_receive else None
            monitor.on_event(ev, send_eid)
        ids = [ev.eid for ev in ex.all_events()]
        rng.shuffle(ids)
        finalized = set()
        for eid in ids:
            monitor.on_finalized(eid)
            finalized.add(eid)
            expected = max_consistent_cut_within(
                oracle, lambda e: e in finalized
            )
            assert monitor.cut == expected

    def test_cut_is_always_consistent(self):
        rng = random.Random(3)
        g = generators.double_star(2, 2)
        from repro.core.random_executions import random_execution

        ex = random_execution(g, rng, steps=30)
        oracle = HappenedBeforeOracle(ex)
        monitor = FinalizedCutMonitor(g.n_vertices)
        for ev in ex.delivery_order():
            send_eid = ex.send_of(ev).eid if ev.is_receive else None
            monitor.on_event(ev, send_eid)
        ids = [ev.eid for ev in ex.all_events()]
        rng.shuffle(ids)
        for eid in ids:
            monitor.on_finalized(eid)
            assert is_consistent(oracle, monitor.cut)


class TestCutEvolution:
    def run_sim(self):
        g = generators.star(5)
        sim = Simulation(
            g,
            seed=4,
            clocks={"inline": StarInlineClock(5), "vector": VectorClock(5)},
            delay_model=ConstantDelay(1.0),
        )
        return sim.run(UniformWorkload(events_per_process=12, p_local=0.3))

    def test_monotone_growth(self):
        res = self.run_sim()
        samples = cut_evolution(res, "inline")
        assert samples
        prev = 0
        for s in samples:
            assert s.events_in_cut >= prev
            assert s.events_in_cut <= s.events_occurred
            prev = s.events_in_cut

    def test_online_clock_cut_tracks_frontier(self):
        """With an online clock the cut equals the occurred events at all
        times (every event finalizes at its occurrence)."""
        res = self.run_sim()
        samples = cut_evolution(res, "vector")
        final = samples[-1]
        assert final.events_in_cut == res.execution.n_events

    def test_inline_cut_trails_then_catches_up(self):
        res = self.run_sim()
        samples = cut_evolution(res, "inline")
        trailed = any(s.events_in_cut < s.events_occurred for s in samples)
        assert trailed
        # after termination-free run end, the cut holds all events that
        # finalized during the run
        assert samples[-1].events_in_cut <= res.execution.n_events
