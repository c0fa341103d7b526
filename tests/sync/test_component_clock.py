"""Tests for the component timestamps on synchronous computations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks.base import INFINITY
from repro.sync.component_clock import (
    ComponentSyncClock,
    ComponentTimestamp,
    timestamp_mismatches,
)
from repro.sync.decomposition import (
    best_decomposition,
    star_decomposition,
    star_triangle_decomposition,
)
from repro.sync.model import random_sync_execution
from repro.topology import generators


def validate_against_oracle(execution, joints, decomposition):
    clock = ComponentSyncClock(decomposition)
    clock.replay(execution, joints)
    clock.finalize_at_termination()
    assert timestamp_mismatches(clock, execution, joints) == []
    return clock


GRAPHS = {
    "star6": generators.star(6),
    "double_star": generators.double_star(2, 3),
    "triangle": generators.clique(3),
    "clique4": generators.clique(4),
    "cycle5": generators.cycle(5),
    "bipartite": generators.complete_bipartite(2, 3),
}


class TestExactness:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(sorted(GRAPHS)),
    )
    def test_characterizes_on_random_sync_executions(self, seed, name):
        g = GRAPHS[name]
        ex, joints = random_sync_execution(g, random.Random(seed), steps=30)
        validate_against_oracle(ex, joints, best_decomposition(g))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_both_decompositions_work(self, seed):
        g = generators.clique(4)
        ex, joints = random_sync_execution(g, random.Random(seed), steps=25)
        validate_against_oracle(ex, joints, star_decomposition(g))
        validate_against_oracle(ex, joints, star_triangle_decomposition(g))


class TestSizes:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_element_bound(self, seed):
        g = generators.star(8)
        dec = star_decomposition(g)  # d = 1
        ex, joints = random_sync_execution(g, random.Random(seed), steps=30)
        clock = ComponentSyncClock(dec)
        clock.replay(ex, joints)
        clock.finalize_at_termination()
        assert clock.max_elements() <= 2 * dec.d + 4

    def test_star_graph_constant_size(self):
        """On a star, d = 1: timestamps have <= 6 elements for any n."""
        for n in (4, 16, 64):
            g = generators.star(n)
            dec = star_decomposition(g)
            ex, joints = random_sync_execution(g, random.Random(1), steps=3 * n)
            clock = ComponentSyncClock(dec)
            clock.replay(ex, joints)
            clock.finalize_at_termination()
            assert dec.d == 1
            assert clock.max_elements() <= 2 * dec.d + 4


class TestInlineSemantics:
    def test_message_events_know_own_component(self):
        clock = ComponentSyncClock(star_decomposition(generators.star(3)))
        m = clock.record(0, 1)
        # the message IS a component-0 message: W[0] known instantly
        assert clock.is_final(m)
        ts = clock.timestamp(m)
        assert ts is not None and ts.w[0] == 1

    def test_internal_event_waits_for_next_component_message(self):
        clock = ComponentSyncClock(star_decomposition(generators.star(3)))
        e = clock.record(1)
        assert not clock.is_final(e)
        assert clock.timestamp(e) is None
        clock.record(1, 0)
        assert clock.is_final(e)
        ts = clock.timestamp(e)
        assert ts is not None and ts.w[0] == 1

    def test_isolated_process_final_after_termination(self):
        from repro.topology.graph import CommunicationGraph

        g = CommunicationGraph(3, [(0, 1)])
        clock = ComponentSyncClock(star_decomposition(g))
        e = clock.record(2)  # no incident components: final immediately
        assert clock.is_final(e)
        ts = clock.timestamp(e)
        assert ts is not None and ts.w == (INFINITY,)

    def test_termination_finalizes_everything(self):
        g = generators.star(4)
        ex, joints = random_sync_execution(g, random.Random(3), steps=15)
        clock = ComponentSyncClock(star_decomposition(g))
        clock.replay(ex, joints)
        clock.finalize_at_termination()
        assert all(map(clock.is_final, range(len(joints))))

    def test_open_events_drop_out_when_final(self):
        """Every open entry is an event still waiting: a final event leaves
        every participant's open set, so a message rescans only those."""
        g = generators.double_star(2, 3)
        ex, joints = random_sync_execution(g, random.Random(5), steps=200)
        clock = ComponentSyncClock(best_decomposition(g))
        for first, _last in joints:
            clock.record(first.proc, ex.event(first).peer)
            for open_p in clock._open:
                assert not any(map(clock.is_final, open_p))
        clock.finalize_at_termination()
        assert not any(clock._open)

    def test_cross_decomposition_compare_refused(self):
        """Timestamps from decompositions of different d do not compare."""
        one = ComponentTimestamp((1,), (1,), (0,), (1,))
        two = ComponentTimestamp((2,), (1,), (1, 0), (INFINITY, INFINITY))
        with pytest.raises(ValueError):
            one.precedes(two)
        with pytest.raises(ValueError):
            two.precedes(one)


class TestVTracksComponentCounts:
    def test_v_prefix_counts(self):
        g = generators.double_star(1, 1)  # edges (0,1), (0,2), (1,3)
        clock = ComponentSyncClock(star_decomposition(g, cover=[0, 1]))
        clock.record(0, 2)  # comp of star 0
        clock.record(1, 3)  # comp of star 1
        m3 = clock.record(0, 1)  # comp of star 0 (edge 0-1 assigned to hub 0)
        clock.finalize_at_termination()
        ts3 = clock.timestamp(m3)
        assert ts3 is not None
        # m3's past: m1 (comp 0) and m2 (comp 1, shared via p1), plus itself
        assert ts3.v == (2, 1)
