"""Tests for the Section-3 star inline algorithm (Figure 1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import DuplicateControl, StarInlineClock, replay_one
from repro.clocks.base import INFINITY
from repro.clocks.inline_star import StarTimestamp
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import Event, EventId, EventKind
from repro.core.random_executions import random_execution
from repro.topology import generators

from tests.helpers import declarative_star_values


def star_execution(seed, n=5, steps=40, deliver_all=False):
    rng = random.Random(seed)
    return random_execution(
        generators.star(n), rng, steps=steps, deliver_all=deliver_all
    )


class TestDeclarativeEquivalence:
    """Figure 1's operational rules must compute the Section-3.1 values."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ctr_pre_post_match_definitions(self, seed):
        ex = star_execution(seed)
        oracle = HappenedBeforeOracle(ex)
        clock = StarInlineClock(5, center=0)
        asg = replay_one(ex, clock)
        expected = declarative_star_values(ex, oracle, center=0)
        for ev in ex.all_events():
            ts = asg[ev.eid]
            ctr, pre, post = expected[ev.eid]
            assert ts.ctr == ctr, f"{ev.eid}: ctr {ts.ctr} != {ctr}"
            assert ts.pre == pre, f"{ev.eid}: pre {ts.pre} != {pre}"
            if ev.proc == 0:
                assert ts.post is None
            else:
                assert ts.post == post, f"{ev.eid}: post {ts.post} != {post}"


class TestComparisonOperator:
    """Theorem 3.1: e -> f iff timestamp_e < timestamp_f (all four cases)."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_characterizes_on_random_star_executions(self, seed):
        ex = star_execution(seed)
        asg = replay_one(ex, StarInlineClock(5, center=0))
        report = asg.validate()
        assert report.characterizes, report

    def test_case_center_center(self):
        a = StarTimestamp(id=0, ctr=1, pre=1, post=None, center=0)
        b = StarTimestamp(id=0, ctr=2, pre=2, post=None, center=0)
        assert a.precedes(b)
        assert not b.precedes(a)

    def test_case_center_radial(self):
        c = StarTimestamp(id=0, ctr=2, pre=2, post=None, center=0)
        r = StarTimestamp(id=1, ctr=1, pre=2, post=5, center=0)
        assert c.precedes(r)  # pre_e <= pre_f
        r2 = StarTimestamp(id=1, ctr=1, pre=1, post=5, center=0)
        assert not c.precedes(r2)

    def test_case_radial_other(self):
        e = StarTimestamp(id=1, ctr=1, pre=0, post=3, center=0)
        f = StarTimestamp(id=2, ctr=2, pre=4, post=9, center=0)
        assert e.precedes(f)  # post_e=3 <= pre_f=4
        g = StarTimestamp(id=2, ctr=2, pre=2, post=9, center=0)
        assert not e.precedes(g)

    def test_case_same_radial(self):
        e = StarTimestamp(id=1, ctr=1, pre=0, post=3, center=0)
        f = StarTimestamp(id=1, ctr=2, pre=0, post=3, center=0)
        assert e.precedes(f)
        assert not f.precedes(e)

    def test_infinite_post_precedes_nothing_elsewhere(self):
        e = StarTimestamp(id=1, ctr=1, pre=0, post=INFINITY, center=0)
        f = StarTimestamp(id=2, ctr=1, pre=99, post=INFINITY, center=0)
        assert not e.precedes(f)

    def test_cross_system_comparison_rejected(self):
        a = StarTimestamp(id=0, ctr=1, pre=1, post=None, center=0)
        b = StarTimestamp(id=0, ctr=1, pre=1, post=2, center=1)
        with pytest.raises(ValueError):
            a.precedes(b)

    def test_cross_scheme_comparison_rejected(self):
        from repro.clocks.vector import VectorTimestamp

        a = StarTimestamp(id=0, ctr=1, pre=1, post=None, center=0)
        with pytest.raises(TypeError):
            a.precedes(VectorTimestamp((1,)))


class TestSizes:
    def test_four_elements_for_radial_two_for_center(self):
        ex = star_execution(0)
        asg = replay_one(ex, StarInlineClock(5, center=0))
        for ev in ex.all_events():
            ts = asg[ev.eid]
            if ev.proc == 0:
                assert ts.n_elements == 2
            else:
                assert ts.n_elements == 4

    def test_paper_bound(self):
        """|timestamp| <= 4 = 2*|VC|+2 with |VC|=1 (Theorem 4.2 for stars)."""
        ex = star_execution(1)
        asg = replay_one(ex, StarInlineClock(5, center=0))
        assert asg.max_elements() <= 4


class TestInlineSemantics:
    def test_center_events_final_immediately(self):
        b = ExecutionBuilder(3, graph=generators.star(3))
        clock = StarInlineClock(3, center=0)
        ev = b.local(0)
        clock.on_local(ev)
        assert clock.is_final(ev.eid)
        assert clock.timestamp(ev.eid) is not None

    def test_radial_event_bottom_until_roundtrip(self):
        graph = generators.star(3)
        b = ExecutionBuilder(3, graph=graph)
        clock = StarInlineClock(3, center=0)

        ev = b.local(1)
        clock.on_local(ev)
        assert not clock.is_final(ev.eid)
        assert clock.timestamp(ev.eid) is None  # ⊥

        # radial sends to centre
        msg = b.send(1, 0)
        send_ev = b.last_event(1)
        payload = clock.on_send(send_ev)
        assert not clock.is_final(send_ev.eid)

        # centre receives; owes the sender its acknowledgement
        recv_ev = b.receive(0, msg)
        ack = clock.on_receive(recv_ev, payload)
        assert ack == (0, 2, 1)  # seq 0: p1's send 2 arrived at C's index 1

        # control arrives back: both earlier radial events finalize
        clock.on_control(0, 1, ack)
        assert clock.is_final(ev.eid)
        assert clock.is_final(send_ev.eid)
        ts = clock.timestamp(ev.eid)
        # the centre's only event is the receive (index 1), so post == 1
        assert ts is not None and ts.post == 1

    def test_post_equals_receive_index(self):
        graph = generators.star(3)
        b = ExecutionBuilder(3, graph=graph)
        clock = StarInlineClock(3, center=0)
        msg = b.send(1, 0)
        payload = clock.on_send(b.last_event(1))
        recv = b.receive(0, msg)
        clock.on_control(0, 1, clock.on_receive(recv, payload))
        ts = clock.timestamp(EventId(1, 1))
        assert ts is not None
        assert ts.post == 1

    def test_drain_newly_finalized(self):
        graph = generators.star(3)
        b = ExecutionBuilder(3, graph=graph)
        clock = StarInlineClock(3, center=0)
        msg = b.send(1, 0)
        payload = clock.on_send(b.last_event(1))
        clock.drain_newly_finalized()
        recv = b.receive(0, msg)
        ack = clock.on_receive(recv, payload)
        newly = clock.drain_newly_finalized()
        assert EventId(0, 1) in newly  # centre event
        clock.on_control(0, 1, ack)
        newly = clock.drain_newly_finalized()
        assert EventId(1, 1) in newly

    def test_rejects_radial_to_radial_message(self):
        clock = StarInlineClock(4, center=0)
        ev = Event(EventId(1, 1), EventKind.SEND, msg_id=0, peer=2)
        with pytest.raises(ValueError):
            clock.on_send(ev)

    def test_rejects_control_from_non_center(self):
        clock = StarInlineClock(3, center=0)
        with pytest.raises(ValueError, match="no control channel"):
            clock.on_control(2, 1, (0, 1, 1))

    def test_radial_receive_owes_no_control(self):
        clock = StarInlineClock(2, center=0)
        payload = clock.record_send(0, 1, 1)
        assert clock.record_receive(1, 1, 0, payload) is None

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            StarInlineClock(3, center=7)

    def test_unknown_event_lookup(self):
        clock = StarInlineClock(3)
        with pytest.raises(KeyError):
            clock.timestamp(EventId(1, 1))


class TestControlResequencing:
    """Out-of-order control delivery must be resequenced (simulated FIFO)."""

    def test_out_of_order_controls_apply_in_order(self):
        graph = generators.star(2)
        b = ExecutionBuilder(2, graph=graph)
        clock = StarInlineClock(2, center=0)
        # two sends from p1, delivered in order at centre
        m1 = b.send(1, 0)
        pay1 = clock.on_send(b.last_event(1))
        m2 = b.send(1, 0)
        pay2 = clock.on_send(b.last_event(1))
        r1 = b.receive(0, m1)
        c1 = clock.on_receive(r1, pay1)
        r2 = b.receive(0, m2)
        c2 = clock.on_receive(r2, pay2)
        # deliver the controls out of order: c2 first
        clock.on_control(0, 1, c2)
        # nothing finalized yet: c2 is buffered awaiting seq 0
        assert not clock.is_final(EventId(1, 1))
        clock.on_control(0, 1, c1)
        assert clock.is_final(EventId(1, 1))
        assert clock.is_final(EventId(1, 2))
        ts1 = clock.timestamp(EventId(1, 1))
        ts2 = clock.timestamp(EventId(1, 2))
        assert ts1 is not None and ts1.post == 1
        assert ts2 is not None and ts2.post == 2

    def test_duplicate_control_rejected(self):
        """A second copy of a control still held early is refused."""
        clock = StarInlineClock(2, center=0)
        pay1 = clock.record_send(1, 1, 0)
        pay2 = clock.record_send(1, 2, 0)
        clock.record_receive(0, 1, 1, pay1)
        c2 = clock.record_receive(0, 2, 1, pay2)
        clock.on_control(0, 1, c2)  # held: seq 0 has not arrived
        before = clock.checkpoint()
        with pytest.raises(DuplicateControl):
            clock.on_control(0, 1, c2)
        assert clock.checkpoint() == before

    def test_second_copy_of_an_applied_control_rejected(self):
        clock = StarInlineClock(2, center=0)
        pay = clock.record_send(1, 1, 0)
        ack = clock.record_receive(0, 1, 1, pay)
        clock.on_control(0, 1, ack)
        assert clock.is_final(EventId(1, 1))
        before = clock.checkpoint()
        with pytest.raises(DuplicateControl):
            clock.on_control(0, 1, ack)
        assert clock.checkpoint() == before


class TestTerminationFinalization:
    def test_undelivered_controls_are_flushed(self):
        """Control emitted but never transported: termination completes it."""
        graph = generators.star(2)
        b = ExecutionBuilder(2, graph=graph)
        clock = StarInlineClock(2, center=0)
        m1 = b.send(1, 0)
        pay = clock.on_send(b.last_event(1))
        r1 = b.receive(0, m1)
        clock.on_receive(r1, pay)  # control emitted, NOT delivered
        assert not clock.is_final(EventId(1, 1))
        newly = clock.finalize_at_termination()
        assert EventId(1, 1) in newly
        ts = clock.timestamp(EventId(1, 1))
        assert ts is not None and ts.post == 1  # true value, not infinity

    def test_true_infinities_remain(self):
        graph = generators.star(2)
        b = ExecutionBuilder(2, graph=graph)
        clock = StarInlineClock(2, center=0)
        ev = b.local(1)
        clock.on_local(ev)
        clock.finalize_at_termination()
        ts = clock.timestamp(ev.eid)
        assert ts is not None and ts.post == INFINITY

    def test_idempotent(self):
        clock = StarInlineClock(2, center=0)
        assert clock.finalize_at_termination() == []
        assert clock.finalize_at_termination() == []

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_characterizes_even_with_undelivered_messages(self, seed):
        ex = star_execution(seed, deliver_all=False)
        asg = replay_one(ex, StarInlineClock(5, center=0))
        assert asg.validate().characterizes


class TestPostBoundary:
    """The post=None (central) vs post=INFINITY (radial) boundary.

    ``post`` means different things on the two sides of the star: central
    events have none (the centre is its own proxy), radial events always
    carry one, with ∞ encoding "no causal successor at C".  Mixing the two
    up used to be caught only by a bare ``assert`` — which vanishes under
    ``python -O`` and then silently compares ``None <= int``.  These tests
    pin the constructor validation and audit all four Theorem 3.1 cases on
    an execution where a radial process never receives an ack.
    """

    def test_central_timestamp_rejects_post_value(self):
        with pytest.raises(ValueError):
            StarTimestamp(id=0, ctr=1, pre=1, post=1, center=0)
        with pytest.raises(ValueError):
            StarTimestamp(id=0, ctr=1, pre=1, post=INFINITY, center=0)

    def test_central_timestamp_requires_pre_equal_ctr(self):
        with pytest.raises(ValueError):
            StarTimestamp(id=0, ctr=2, pre=1, post=None, center=0)

    def test_radial_timestamp_rejects_missing_post(self):
        with pytest.raises(ValueError):
            StarTimestamp(id=1, ctr=1, pre=0, post=None, center=0)

    def test_radial_post_must_be_index_or_infinity(self):
        with pytest.raises(ValueError):
            StarTimestamp(id=1, ctr=1, pre=0, post=0, center=0)
        with pytest.raises(ValueError):
            StarTimestamp(id=1, ctr=1, pre=0, post=2.5, center=0)
        # both legal forms construct fine
        StarTimestamp(id=1, ctr=1, pre=0, post=3, center=0)
        StarTimestamp(id=1, ctr=1, pre=0, post=INFINITY, center=0)

    def test_bad_ctr_and_pre_rejected(self):
        with pytest.raises(ValueError):
            StarTimestamp(id=1, ctr=0, pre=0, post=INFINITY, center=0)
        with pytest.raises(ValueError):
            StarTimestamp(id=1, ctr=1, pre=-1, post=INFINITY, center=0)

    def _no_ack_execution(self):
        """p1 works and sends to C, but C never delivers; C and p2 talk."""
        graph = generators.star(3)
        b = ExecutionBuilder(3, graph=graph)
        b.local(1)
        b.send(1, 0)            # never delivered: no ack will ever exist
        b.receive(2, b.send(0, 2))  # C(1) -> p2(1): the rest of the star works
        m_back = b.send(2, 0)
        b.receive(0, m_back)    # C(2) receives p2's reply
        b.local(1)              # p1 keeps going, still unacknowledged
        return b.freeze()

    def test_no_ack_radial_finalizes_to_infinity(self):
        ex = self._no_ack_execution()
        asg = replay_one(ex, StarInlineClock(3, center=0))
        for idx in (1, 2, 3):
            ts = asg[EventId(1, idx)]
            assert ts.post == INFINITY, f"e{idx}@p1 must have post=∞, got {ts}"
            assert ts.pre == 0  # p1 never heard from C either

    def test_no_ack_execution_characterizes(self):
        """All four Theorem 3.1 cases agree with HB despite post=∞."""
        ex = self._no_ack_execution()
        asg = replay_one(ex, StarInlineClock(3, center=0))
        assert asg.validate().characterizes, asg.validate()

    def test_no_ack_boundary_cases_explicit(self):
        ex = self._no_ack_execution()
        asg = replay_one(ex, StarInlineClock(3, center=0))
        p1_send = asg[EventId(1, 2)]    # radial, post=∞
        p1_last = asg[EventId(1, 3)]
        center_first = asg[EventId(0, 1)]
        p2_recv = asg[EventId(2, 1)]
        # case 3 (radial → other process): ∞ <= pre is False for any event
        assert not p1_send.precedes(center_first)
        assert not p1_send.precedes(p2_recv)
        # case 2 (central → radial): pre_e <= pre_f fails since p1.pre == 0
        assert not center_first.precedes(p1_send)
        # case 4 (same radial process): ctr order still works under post=∞
        assert p1_send.precedes(p1_last)
        assert not p1_last.precedes(p1_send)

    def test_infinity_post_counts_as_stored_element(self):
        ts = StarTimestamp(id=1, ctr=1, pre=0, post=INFINITY, center=0)
        assert ts.n_elements == 4
        assert ts.elements() == (1, 1, 0, INFINITY)
