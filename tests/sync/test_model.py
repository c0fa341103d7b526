"""Tests for synchronous computations on the core model and the handshake rule."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventId
from repro.core.execution import ExecutionBuilder
from repro.core.happened_before import HappenedBeforeOracle
from repro.sync.component_clock import ComponentSyncClock
from repro.sync.decomposition import star_decomposition
from repro.sync.model import (
    handshake,
    internal_event,
    joint_happened_before,
    random_sync_execution,
)
from repro.topology import generators


class TestBuilder:
    def test_internal_events(self):
        b = ExecutionBuilder(2)
        e1 = internal_event(b, 0)
        e2 = internal_event(b, 0)
        assert e1 == (EventId(0, 1), EventId(0, 1))
        assert e2 == (EventId(0, 2), EventId(0, 2))

    def test_message_is_joint(self):
        """Figure 3: send, receive, acknowledgement, its receive."""
        b = ExecutionBuilder(3)
        internal_event(b, 1)
        first, last = handshake(b, 0, 1)
        assert (first, last) == (EventId(0, 1), EventId(0, 2))
        ex = b.freeze()
        send, ack_recv = ex.events_at(0)
        _local, recv, ack_send = ex.events_at(1)
        assert send.is_send and ex.send_of(recv) == send
        assert ack_send.is_send and ex.send_of(ack_recv) == ack_send

    def test_message_normalizes_order(self):
        """Either side may initiate; the span sits at the initiator and the
        component timestamp names the participants in process order."""
        b = ExecutionBuilder(2)
        first, last = handshake(b, 1, 0)
        assert first.proc == last.proc == 1
        clock = ComponentSyncClock(star_decomposition(generators.star(2)))
        clock.record(1, 0)
        assert clock.timestamp(0).procs == (0, 1)

    def test_rejects_self_message(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ValueError):
            handshake(b, 1, 1)

    def test_respects_graph(self):
        b = ExecutionBuilder(4, graph=generators.star(4))
        with pytest.raises(ValueError):
            handshake(b, 1, 2)

    def test_frozen(self):
        b = ExecutionBuilder(1)
        b.freeze()
        with pytest.raises(ValueError):
            internal_event(b, 0)

    def test_execution_views(self):
        b = ExecutionBuilder(2)
        internal_event(b, 0)
        handshake(b, 0, 1)
        ex = b.freeze()
        assert ex.n_events == 1 + 4
        assert len(ex.events_at(0)) == 3
        assert len(ex.events_at(1)) == 2
        assert len(ex.messages) == 2


class TestOracle:
    def test_joint_event_orders_both_sides(self):
        b = ExecutionBuilder(2)
        e0 = internal_event(b, 0)
        e1 = internal_event(b, 1)
        m = handshake(b, 0, 1)
        f0 = internal_event(b, 0)
        f1 = internal_event(b, 1)
        oracle = HappenedBeforeOracle(b.freeze())

        def hb(e, f):
            return joint_happened_before(oracle, e, f)

        # both pre-events precede both post-events through the rendezvous
        assert hb(e0, f1) and hb(e1, f0)
        assert hb(e0, m) and hb(e1, m) and hb(m, f0) and hb(m, f1)
        assert not hb(m, m)
        assert not hb(e0, e1) and not hb(e1, e0)
        assert not hb(f0, f1) and not hb(f1, f0)

    def test_synchrony_vs_asynchrony(self):
        """The defining difference: a synchronous message orders the
        *receiver's* earlier events before the *sender's* later ones; the
        handshake orders them whichever side initiates it."""
        for initiator in (0, 1):
            b = ExecutionBuilder(2)
            before = internal_event(b, 1)
            handshake(b, initiator, 1 - initiator)
            after = internal_event(b, 0)
            oracle = HappenedBeforeOracle(b.freeze())
            assert joint_happened_before(oracle, before, after)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partial_order_properties(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(5, 0.4, rng)
        ex, joints = random_sync_execution(g, rng, steps=25)
        oracle = HappenedBeforeOracle(ex)
        before = {
            (e, f): joint_happened_before(oracle, e, f)
            for e in joints
            for f in joints
        }
        for e in joints:
            assert not before[e, e]
            for f in joints:
                if before[e, f]:
                    assert not before[f, e]
                    for g2 in joints:
                        if before[f, g2]:
                            assert before[e, g2]


FAMILIES = {
    "star": lambda n, k: generators.star(n),
    "clique": lambda n, k: generators.clique(n),
    "cycle": lambda n, k: generators.cycle(n),
    "double_star": lambda n, k: generators.double_star(k, n - k),
    "bipartite": lambda n, k: generators.complete_bipartite(k, n - k),
}


def reference_order(participants):
    """Joint happened-before from its definition, for joint events given by
    their participant processes in creation order: two are directly ordered
    when they are consecutive at a shared process, closed transitively.
    Returns each event's set of successors."""
    last_at = {}
    succ = [set() for _ in participants]
    for i, procs in enumerate(participants):
        for p in procs:
            if p in last_at:
                succ[last_at[p]].add(i)
            last_at[p] = i
    after = [set() for _ in participants]
    for i in reversed(range(len(participants))):
        for k in succ[i]:
            after[i] |= {k} | after[k]
    return after


class TestHandshakeRule:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(3, 7),
        k=st.integers(1, 2),
        steps=st.integers(0, 30),
    )
    def test_first_before_last_is_joint_happened_before(
        self, seed, family, n, k, steps
    ):
        """``e -> f`` iff ``first(e) -> last(f)``, with the initiator of
        each message drawn at random."""
        rng = random.Random(seed)
        g = FAMILIES[family](n, k)
        b = ExecutionBuilder(g.n_vertices, graph=g)
        edges = list(g.edges)
        joints, participants = [], []
        for _ in range(steps):
            if rng.random() < 0.35:
                p = rng.randrange(g.n_vertices)
                joints.append(internal_event(b, p))
                participants.append((p,))
            else:
                a, c = edges[rng.randrange(len(edges))]
                if rng.random() < 0.5:
                    a, c = c, a
                joints.append(handshake(b, a, c))
                participants.append((a, c))
        oracle = HappenedBeforeOracle(b.freeze())
        after = reference_order(participants)
        for i, e in enumerate(joints):
            for j, f in enumerate(joints):
                assert joint_happened_before(oracle, e, f) == (j in after[i]), (
                    participants[i],
                    participants[j],
                )
