"""Tests for two-level cluster timestamps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ClusterClock
from repro.clocks import replay_one
from repro.core import ExecutionBuilder
from repro.core.random_executions import random_execution
from repro.topology import generators


class TestPartitions:
    def test_default_partition_covers_everyone(self):
        clock = ClusterClock(10)
        assert {clock.cluster_of(p) for p in range(10)} is not None
        for p in range(10):
            clock.cluster_of(p)  # no KeyError

    def test_custom_partition(self):
        clock = ClusterClock(4, clusters=[[0, 3], [1, 2]])
        assert clock.cluster_of(0) == clock.cluster_of(3) == 0
        assert clock.cluster_of(1) == clock.cluster_of(2) == 1

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            ClusterClock(4, clusters=[[0, 1]])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ClusterClock(3, clusters=[[0, 1], [1, 2]])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterClock(2, clusters=[[0, 1], []])


class TestStorageProfile:
    def test_intra_cluster_events_are_short(self):
        b = ExecutionBuilder(4)
        m = b.send(0, 1)  # same cluster {0,1}
        b.receive(1, m)
        ex = b.freeze()
        clock = ClusterClock(4, clusters=[[0, 1], [2, 3]])
        asg = replay_one(ex, clock)
        for _eid, ts in asg.items():
            assert ts.full_vector is None
            assert ts.n_elements == 2  # cluster vector only

    def test_cluster_receive_is_long(self):
        b = ExecutionBuilder(4)
        m = b.send(0, 2)  # crosses clusters
        recv = b.receive(2, m)
        ex = b.freeze()
        clock = ClusterClock(4, clusters=[[0, 1], [2, 3]])
        asg = replay_one(ex, clock)
        ts = asg[recv.eid]
        assert ts.full_vector is not None
        assert ts.n_elements == 2 + 4  # cluster vector + full vector


class TestCorrectness:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_characterizes_on_random_executions(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(6, 0.4, rng)
        ex = random_execution(g, rng, steps=35)
        clock = ClusterClock(6, clusters=[[0, 1, 2], [3, 4, 5]])
        assert replay_one(ex, clock).validate().characterizes
