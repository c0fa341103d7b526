"""Tests for the Section-4 vertex-cover inline algorithm."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import (
    CoverInlineClock,
    DuplicateControl,
    StarInlineClock,
    replay,
    replay_one,
)
from repro.clocks.base import INFINITY
from repro.clocks.inline_cover import CoverTimestamp
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators
from repro.topology.graph import CommunicationGraph
from repro.topology.vertex_cover import best_cover

from tests.helpers import declarative_cover_values


def rand_ex(graph, seed, steps=40, deliver_all=False):
    return random_execution(
        graph, random.Random(seed), steps=steps, deliver_all=deliver_all
    )


GRAPH_FAMILIES = {
    "star6": generators.star(6),
    "double_star": generators.double_star(2, 3),
    "cycle6": generators.cycle(6),
    "path5": generators.path(5),
    "clique4": generators.clique(4),
    "bipartite": generators.complete_bipartite(2, 4),
    "caterpillar": generators.caterpillar(3, 2),
    # the 2×3 mesh, vertex r*3 + c
    "grid2x3": CommunicationGraph(
        6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]
    ),
}


class TestConstruction:
    def test_invalid_cover_rejected(self):
        g = generators.star(4)
        with pytest.raises(ValueError):
            CoverInlineClock(g, cover=(1,))  # radial alone is not a cover

    def test_default_cover_is_computed(self):
        g = generators.star(5)
        clock = CoverInlineClock(g)
        assert clock.cover == (0,)

    def test_cover_deduplicated_and_sorted(self):
        g = generators.double_star(2, 2)
        clock = CoverInlineClock(g, cover=(1, 0, 1))
        assert clock.cover == (0, 1)

    def test_in_cover(self):
        g = generators.double_star(2, 2)
        clock = CoverInlineClock(g, cover=(0, 1))
        assert clock.in_cover(0) and clock.in_cover(1)
        assert not clock.in_cover(2)

    def test_rejects_non_edge_message(self):
        from repro.core.events import Event, EventKind

        g = generators.star(4)
        clock = CoverInlineClock(g, cover=(0,))
        ev = Event(EventId(1, 1), EventKind.SEND, msg_id=0, peer=3)
        with pytest.raises(ValueError):
            clock.on_send(ev)


class TestDeclarativeEquivalence:
    """Operational algorithm == Section-4 declarative definitions."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(sorted(GRAPH_FAMILIES)),
    )
    def test_mctr_mpre_mpost_match_definitions(self, seed, family):
        graph = GRAPH_FAMILIES[family]
        cover = tuple(best_cover(graph))
        ex = rand_ex(graph, seed)
        oracle = HappenedBeforeOracle(ex)
        asg = replay_one(ex, CoverInlineClock(graph, cover))
        expected = declarative_cover_values(ex, oracle, cover)
        for ev in ex.all_events():
            ts = asg[ev.eid]
            mctr, mpre, mpost = expected[ev.eid]
            assert ts.mctr == mctr
            assert ts.mpre == mpre, f"{family} {ev.eid}: {ts.mpre} != {mpre}"
            assert ts.mpost == mpost, f"{family} {ev.eid}: {ts.mpost} != {mpost}"


class TestComparisonOperator:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(sorted(GRAPH_FAMILIES)),
    )
    def test_characterizes_on_random_executions(self, seed, family):
        graph = GRAPH_FAMILIES[family]
        ex = rand_ex(graph, seed)
        asg = replay_one(ex, CoverInlineClock(graph))
        report = asg.validate()
        assert report.characterizes, (family, report)

    def test_case_cover_cover(self):
        a = CoverTimestamp(id=0, mctr=1, mpre=(1, 0), mpost=None, cover=(0, 1))
        b = CoverTimestamp(id=1, mctr=2, mpre=(1, 2), mpost=None, cover=(0, 1))
        assert a.precedes(b)
        assert not b.precedes(a)

    def test_case_cover_noncover(self):
        a = CoverTimestamp(id=0, mctr=2, mpre=(2, 0), mpost=None, cover=(0, 1))
        f = CoverTimestamp(
            id=3, mctr=1, mpre=(2, 1), mpost=(INFINITY, 5), cover=(0, 1)
        )
        assert a.precedes(f)  # mpre (2,0) <= (2,1)
        g = CoverTimestamp(
            id=3, mctr=1, mpre=(1, 1), mpost=(INFINITY, 5), cover=(0, 1)
        )
        assert not a.precedes(g)

    def test_case_noncover_other(self):
        e = CoverTimestamp(id=3, mctr=1, mpre=(0, 0), mpost=(4, INFINITY), cover=(0, 1))
        f = CoverTimestamp(id=2, mctr=1, mpre=(5, 0), mpost=(9, 9), cover=(0, 1))
        assert e.precedes(f)  # exists c=0: mpost 4 <= mpre 5
        g = CoverTimestamp(id=2, mctr=1, mpre=(3, 0), mpost=(9, 9), cover=(0, 1))
        assert not e.precedes(g)

    def test_case_same_noncover_process(self):
        e = CoverTimestamp(id=3, mctr=1, mpre=(0, 0), mpost=(INFINITY, INFINITY), cover=(0, 1))
        f = CoverTimestamp(id=3, mctr=2, mpre=(0, 0), mpost=(INFINITY, INFINITY), cover=(0, 1))
        assert e.precedes(f)
        assert not f.precedes(e)

    def test_different_covers_rejected(self):
        a = CoverTimestamp(id=0, mctr=1, mpre=(1,), mpost=None, cover=(0,))
        b = CoverTimestamp(id=0, mctr=1, mpre=(1, 0), mpost=None, cover=(0, 1))
        with pytest.raises(ValueError):
            a.precedes(b)


class TestSizeBounds:
    """Theorem 4.2: at most 2|VC|+2 elements."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(sorted(GRAPH_FAMILIES)),
    )
    def test_element_bound(self, seed, family):
        graph = GRAPH_FAMILIES[family]
        cover = tuple(best_cover(graph))
        ex = rand_ex(graph, seed)
        asg = replay_one(ex, CoverInlineClock(graph, cover))
        bound = 2 * len(cover) + 2
        assert asg.max_elements() <= bound
        for eid, ts in asg.items():
            if eid.proc in cover:
                assert ts.n_elements == len(cover) + 2
            else:
                assert ts.n_elements == 2 * len(cover) + 2


class TestStarEquivalence:
    """With VC = {centre} on a star, the cover algorithm must agree with
    the Section-3 star algorithm event for event."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_values_and_order_agree(self, seed):
        graph = generators.star(5)
        ex = rand_ex(graph, seed)
        star_asg, cover_asg = replay(
            ex, [StarInlineClock(5, center=0), CoverInlineClock(graph, (0,))]
        )
        ids = [ev.eid for ev in ex.all_events()]
        for e in ids:
            s, c = star_asg[e], cover_asg[e]
            assert s.ctr == c.mctr
            assert s.pre == c.mpre[0]
            if e.proc != 0:
                assert s.post == c.mpost[0]
        for e in ids:
            for f in ids:
                if e != f:
                    assert star_asg.precedes(e, f) == cover_asg.precedes(e, f)


class TestFinalization:
    def test_cover_events_final_immediately(self):
        g = generators.double_star(2, 2)
        b = ExecutionBuilder(6, graph=g)
        clock = CoverInlineClock(g, cover=(0, 1))
        ev = b.local(0)
        clock.on_local(ev)
        assert clock.is_final(ev.eid)

    def test_noncover_waits_for_all_adjacent_cover(self):
        """On a path 0-1-2 with cover {0,2}, process 1's events need round
        trips with both 0 and 2."""
        g = generators.path(3)
        b = ExecutionBuilder(3, graph=g)
        clock = CoverInlineClock(g, cover=(0, 2))

        ev = b.local(1)
        clock.on_local(ev)
        assert not clock.is_final(ev.eid)

        # round trip with 0
        m = b.send(1, 0)
        pay = clock.on_send(b.last_event(1))
        r = b.receive(0, m)
        clock.on_control(r.eid.proc, r.peer, clock.on_receive(r, pay))
        assert not clock.is_final(ev.eid)  # still waiting on 2

        # round trip with 2
        m = b.send(1, 2)
        pay = clock.on_send(b.last_event(1))
        r = b.receive(2, m)
        clock.on_control(r.eid.proc, r.peer, clock.on_receive(r, pay))
        assert clock.is_final(ev.eid)

    def test_unconnected_cover_entry_stays_infinite(self):
        """No channel between a non-cover process and a cover process:
        that mpost entry is ∞ forever and does not block finalization
        (the paper's Remark)."""
        g = generators.double_star(1, 1)  # 0-1, 0-2, 1-3
        b = ExecutionBuilder(4, graph=g)
        clock = CoverInlineClock(g, cover=(0, 1))
        # process 2 connects only to 0
        m = b.send(2, 0)
        pay = clock.on_send(b.last_event(2))
        r = b.receive(0, m)
        clock.on_control(r.eid.proc, r.peer, clock.on_receive(r, pay))
        assert clock.is_final(EventId(2, 1))
        ts = clock.timestamp(EventId(2, 1))
        assert ts is not None
        slot_of_1 = clock.cover.index(1)
        assert ts.mpost is not None and ts.mpost[slot_of_1] == INFINITY

    def test_isolated_noncover_process_final_immediately(self):
        g = generators.__dict__  # placeholder to appease linters
        from repro.topology.graph import CommunicationGraph

        graph = CommunicationGraph(3, [(0, 1)])
        b = ExecutionBuilder(3, graph=graph)
        clock = CoverInlineClock(graph, cover=(0,))
        ev = b.local(2)
        clock.on_local(ev)
        assert clock.is_final(ev.eid)

    def test_no_control_between_cover_processes(self):
        g = generators.double_star(1, 1)
        b = ExecutionBuilder(4, graph=g)
        clock = CoverInlineClock(g, cover=(0, 1))
        m = b.send(0, 1)
        pay = clock.on_send(b.last_event(0))
        r = b.receive(1, m)
        assert clock.on_receive(r, pay) is None

    def test_control_from_noncover_rejected(self):
        g = generators.star(3)
        clock = CoverInlineClock(g, cover=(0,))
        with pytest.raises(ValueError, match="no control channel"):
            clock.on_control(1, 2, (0, 1, 1))

    def test_control_off_every_channel_rejected(self):
        g = generators.double_star(1, 1)  # 0-1, 0-2, 1-3
        clock = CoverInlineClock(g, cover=(0, 1))
        for src, dst in ((0, 3), (0, 1)):  # no edge; cover to cover
            with pytest.raises(ValueError, match="no control channel"):
                clock.on_control(src, dst, (0, 1, 1))

    def test_second_copy_of_an_applied_control_rejected(self):
        g = generators.path(3)
        clock = CoverInlineClock(g, cover=(0, 2))
        pay = clock.record_send(1, 1, 0)
        ack = clock.record_receive(0, 1, 1, pay)
        clock.on_control(0, 1, ack)
        before = clock.checkpoint()
        with pytest.raises(DuplicateControl):
            clock.on_control(0, 1, ack)
        assert clock.checkpoint() == before

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_termination_flush_preserves_correctness(self, seed):
        graph = generators.double_star(2, 3)
        ex = rand_ex(graph, seed, deliver_all=False)
        asg = replay_one(ex, CoverInlineClock(graph))
        assert asg.validate().characterizes


class TestWorkedExample:
    """A Figure-2-style worked example: cover {p0, p1} with p3 outside.

    (The figure in our source is partially garbled, so this reconstructs
    the scenario described by the prose: computation of g's mpre from the
    single prior event on p1, and of mpost[0] from the receive index at p0,
    with mpost[1] = ∞ because p3 and p1 share no channel.)
    """

    def test_event_g(self):
        graph = generators.double_star(1, 1)  # edges 0-1, 0-2, 1-3
        # relabel for the scenario: p3 talks to p1... use explicit graph:
        graph = CommunicationGraph(4, [(0, 1), (0, 3), (1, 2)])
        cover = (0, 1)
        b = ExecutionBuilder(4, graph=graph)
        clock = CoverInlineClock(graph, cover)

        payloads = {}

        def drive(ev, msg_id=None, recv_of=None):
            if ev.is_send:
                payloads[ev.msg_id] = clock.on_send(ev)
                return None
            if ev.is_receive:
                return clock.on_receive(ev, payloads[ev.msg_id])
            clock.on_local(ev)
            return None

        # p1 performs one event and tells p0; p0 relays to p3 -> event g
        m1 = b.send(1, 0)
        drive(b.last_event(1))
        drive(b.receive(0, m1))
        m2 = b.send(0, 3)
        drive(b.last_event(0))
        g = b.receive(3, m2)
        drive(g)

        assert clock.timestamp(g.eid) is None  # ⊥ until p0 acknowledges

        # p3 sends back to p0; the receive at p0 is its 3rd event
        m3 = b.send(3, 0)
        drive(b.last_event(3))
        ack = drive(b.receive(0, m3))
        assert ack == (0, 2, 3)  # p3's send (its event 2) is p0's event 3
        clock.on_control(0, 3, ack)

        ts = clock.timestamp(g.eid)
        assert ts is not None  # finalized: p3's only cover neighbour is p0
        # g knows p1's event (mctr 1) and p0's two events
        assert ts.mpre == (2, 1)
        assert ts.mpost == (3, INFINITY)  # no channel p3-p1 -> ∞ forever
