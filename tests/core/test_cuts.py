"""Tests for consistent cuts, on every oracle a cut query accepts.

``oracles_for`` (tests/conftest.py) hands each test the batch oracle, a
frozen streaming oracle and a streaming oracle caught mid-run, and the test
loops over them; the batch oracle of the whole execution is the reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.cuts import (
    cut_from_events,
    cut_size,
    empty_cut,
    events_in_cut,
    frontier,
    full_cut,
    is_consistent,
    join,
    max_consistent_cut_within,
    meet,
)
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators
from tests.helpers import known_ids


@pytest.fixture
def small_oracles(oracles_for, small_star_execution):
    """Mid-run, the streaming oracle has seen (2, 1, 1, 1) of (4, 3, 2, 1)."""
    return oracles_for(small_star_execution)


class TestBasicCuts:
    def test_empty_and_full_are_consistent(self, small_oracles):
        for oracle in small_oracles:
            assert is_consistent(oracle, empty_cut(4))
            assert is_consistent(oracle, full_cut(oracle))

    def test_inconsistent_cut_detected(self, small_oracles):
        # include p0's receive of m0 but not p1's send: inconsistent
        for oracle in small_oracles:
            assert not is_consistent(oracle, (1, 0, 0, 0))

    def test_consistent_prefix(self, small_oracles):
        # p1's send alone is consistent
        for oracle in small_oracles:
            assert is_consistent(oracle, (0, 1, 0, 0))

    def test_wrong_length_rejected(self, small_oracles):
        for oracle in small_oracles:
            with pytest.raises(ValueError):
                is_consistent(oracle, (0, 0))

    def test_out_of_range_rejected(self, small_oracles):
        for oracle in small_oracles:
            beyond = oracle.event_count(0) + 1
            for query in (is_consistent, events_in_cut, frontier):
                with pytest.raises(ValueError):
                    query(oracle, (beyond, 0, 0, 0))
                with pytest.raises(ValueError):
                    query(oracle, (0, -1, 0, 0))

    def test_events_in_cut(self, small_oracles):
        for oracle in small_oracles:
            evs = events_in_cut(oracle, (2, 1, 0, 0))
            assert evs == {EventId(0, 1), EventId(0, 2), EventId(1, 1)}

    def test_cut_size(self):
        assert cut_size((2, 1, 0, 3)) == 6

    def test_frontier(self, small_oracles):
        for oracle in small_oracles:
            f = frontier(oracle, (2, 1, 0, 0))
            assert set(f) == {EventId(0, 2), EventId(1, 1)}


class TestLatticeOperations:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_join_meet_preserve_consistency(self, oracles_for, seed):
        graph = generators.star(4)
        ex = random_execution(graph, random.Random(seed), steps=20)
        ref = HappenedBeforeOracle(ex)
        for oracle in oracles_for(ex):
            rng = random.Random(seed + 1)
            # build two consistent cuts from random event sets
            ids = known_ids(oracle)
            if not ids:
                continue
            seeds_a = rng.sample(ids, min(3, len(ids)))
            seeds_b = rng.sample(ids, min(3, len(ids)))
            a = cut_from_events(oracle, seeds_a)
            b = cut_from_events(oracle, seeds_b)
            assert a == cut_from_events(ref, seeds_a)
            assert b == cut_from_events(ref, seeds_b)
            for cut in (a, b, join(a, b), meet(a, b)):
                assert is_consistent(oracle, cut)
                assert is_consistent(ref, cut)

    def test_cut_from_events_minimal(self, small_oracles):
        for oracle in small_oracles:
            cut = cut_from_events(oracle, [EventId(2, 1)])
            assert is_consistent(oracle, cut)
            # must contain the causal past exactly
            assert cut == (2, 1, 1, 0)


class TestMaxConsistentCutWithin:
    def test_full_when_all_allowed(self, small_oracles):
        for oracle in small_oracles:
            cut = max_consistent_cut_within(oracle, lambda e: True)
            assert cut == full_cut(oracle)

    def test_empty_when_none_allowed(self, small_oracles):
        for oracle in small_oracles:
            cut = max_consistent_cut_within(oracle, lambda e: False)
            assert cut == empty_cut(4)

    def test_removal_propagates(self, small_oracles):
        # forbid p1's send: p0's receive (and everything after at p0,
        # and p2's receive of the relay) must go too
        banned = EventId(1, 1)
        for oracle in small_oracles:
            cut = max_consistent_cut_within(oracle, lambda e: e != banned)
            assert cut[1] == 0
            assert cut[0] == 0  # p0's first event receives m0
            assert cut[2] == 0
            assert cut[3] == 1  # p3's local event unaffected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_result_is_consistent_and_allowed(self, oracles_for, seed):
        graph = generators.double_star(2, 2)
        ex = random_execution(graph, random.Random(seed), steps=25)
        ref = HappenedBeforeOracle(ex)
        for oracle in oracles_for(ex):
            rng = random.Random(seed + 1)
            ids = known_ids(oracle)
            banned = set(rng.sample(ids, len(ids) // 3)) if ids else set()
            cut = max_consistent_cut_within(oracle, lambda e: e not in banned)
            assert is_consistent(oracle, cut)
            assert not (events_in_cut(oracle, cut) & banned)
            known = set(ids)
            assert cut == max_consistent_cut_within(
                ref, lambda e: e in known and e not in banned
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_maximality(self, oracles_for, seed):
        """No single process can be extended without breaking the rules."""
        graph = generators.star(4)
        ex = random_execution(graph, random.Random(seed), steps=20)
        for oracle in oracles_for(ex):
            rng = random.Random(seed + 1)
            ids = known_ids(oracle)
            banned = set(rng.sample(ids, len(ids) // 4)) if ids else set()
            allowed = lambda e: e not in banned
            cut = max_consistent_cut_within(oracle, allowed)
            for p in range(ex.n_processes):
                if cut[p] < oracle.event_count(p):
                    extended = list(cut)
                    extended[p] += 1
                    new_event = EventId(p, cut[p] + 1)
                    assert (not allowed(new_event)) or not is_consistent(
                        oracle, tuple(extended)
                    )
