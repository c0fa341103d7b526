"""Tests for the ground-truth happened-before oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import EventId
from repro.core.cuts import cut_from_events, events_in_cut
from repro.core.random_executions import random_execution
from repro.topology import generators


class TestBasicRelations:
    def test_process_order(self, small_oracle):
        # events at p0 are totally ordered
        assert small_oracle.happened_before(EventId(0, 1), EventId(0, 2))
        assert not small_oracle.happened_before(EventId(0, 2), EventId(0, 1))

    def test_send_before_receive(self, small_oracle):
        # m0: e1@p1 -> e1@p0
        assert small_oracle.happened_before(EventId(1, 1), EventId(0, 1))

    def test_transitivity_through_messages(self, small_oracle):
        # p1's send -> p0 -> p2's receive
        assert small_oracle.happened_before(EventId(1, 1), EventId(2, 1))

    def test_local_event_concurrent_with_everything_else(self, small_oracle):
        lonely = EventId(3, 1)
        for ev in small_oracle.execution.all_events():
            if ev.eid != lonely:
                assert not small_oracle.happened_before(lonely, ev.eid)
                assert not small_oracle.happened_before(ev.eid, lonely)

    def test_irreflexive(self, small_oracle):
        for ev in small_oracle.execution.all_events():
            assert not small_oracle.happened_before(ev.eid, ev.eid)

    def test_antisymmetric(self, small_oracle):
        ids = [ev.eid for ev in small_oracle.execution.all_events()]
        for e in ids:
            for f in ids:
                if e != f:
                    assert not (
                        small_oracle.happened_before(e, f)
                        and small_oracle.happened_before(f, e)
                    )


class TestSets:
    def test_causal_past(self, small_oracle):
        # e1@p2 (receive of p0's relay) causally follows p1's send and p0's
        # first two events
        past = small_oracle.causal_past(EventId(2, 1))
        assert EventId(1, 1) in past
        assert EventId(0, 1) in past
        assert EventId(0, 2) in past
        assert EventId(3, 1) not in past

    def test_downward_closure_is_closed(self, small_oracle):
        seed = EventId(2, 1)
        closed = events_in_cut(
            small_oracle, cut_from_events(small_oracle, [seed])
        )
        assert closed == small_oracle.causal_past(seed) | {seed}
        for f in closed:
            for e in small_oracle.causal_past(f):
                assert e in closed

    def test_relation_counts_add_up(self, small_oracle):
        ordered, concurrent = small_oracle.relation_counts()
        n = small_oracle.execution.n_events
        assert ordered + concurrent == n * (n - 1) // 2


class TestTransitivityProperty:
    """Happened-before must always be a strict partial order."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_executions_form_partial_order(self, seed):
        rng = random.Random(seed)
        graph = generators.erdos_renyi(6, 0.4, rng)
        ex = random_execution(graph, rng, steps=25)
        oracle = HappenedBeforeOracle(ex)
        ids = [ev.eid for ev in ex.all_events()]
        for e in ids:
            assert not oracle.happened_before(e, e)
            for f in ids:
                for g in ids:
                    if oracle.happened_before(e, f) and oracle.happened_before(
                        f, g
                    ):
                        assert oracle.happened_before(e, g)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_message_edges_present(self, seed):
        rng = random.Random(seed)
        graph = generators.star(5)
        ex = random_execution(graph, rng, steps=30)
        oracle = HappenedBeforeOracle(ex)
        for msg in ex.messages:
            if msg.recv_event is not None:
                assert oracle.happened_before(msg.send_event, msg.recv_event)
