"""Tests for offline realizer construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExecutionBuilder
from repro.core.random_executions import random_execution
from repro.lowerbounds.charron_bost import charron_bost_execution
from repro.lowerbounds.posets import Poset
from repro.lowerbounds.realizers import (
    greedy_realizer,
    offline_vector_timestamps,
    verify_offline_vectors,
    verify_realizer,
)
from tests.helpers import standard_example
from repro.topology import generators


class TestGreedyRealizer:
    def test_chain_needs_one_extension(self):
        p = Poset([1, 2, 3], {(1, 2), (2, 3), (1, 3)})
        r = greedy_realizer(p)
        assert r is not None and len(r) == 1
        assert verify_realizer(p, r)

    def test_antichain_needs_two(self):
        p = Poset([1, 2, 3, 4], set())
        r = greedy_realizer(p)
        assert r is not None and len(r) == 2
        assert verify_realizer(p, r)

    def test_crown_3(self):
        p = standard_example(3)
        r = greedy_realizer(p)
        assert r is not None
        assert len(r) >= 3  # dimension of the crown
        assert verify_realizer(p, r)

    def test_crown_4(self):
        p = standard_example(4)
        r = greedy_realizer(p)
        assert r is not None
        assert 4 <= len(r) <= 8
        assert verify_realizer(p, r)

    def test_empty_poset(self):
        p = Poset([], set())
        assert greedy_realizer(p) == []

    def test_singleton(self):
        p = Poset([1], set())
        r = greedy_realizer(p)
        assert r == [[1]]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_execution_posets(self, seed):
        rng = random.Random(seed)
        g = generators.star(5)
        ex = random_execution(g, rng, steps=18)
        p = Poset.from_execution(ex)
        r = greedy_realizer(p)
        assert r is not None
        assert verify_realizer(p, r)


class TestVerifier:
    def test_rejects_non_extension(self):
        p = Poset([1, 2], {(1, 2)})
        assert not verify_realizer(p, [[2, 1]])

    def test_rejects_incomplete_realizer(self):
        """One extension of an antichain orders everything one way."""
        p = Poset([1, 2], set())
        assert not verify_realizer(p, [[1, 2]])
        assert verify_realizer(p, [[1, 2], [2, 1]])


class TestOfflineVectors:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_vectors_characterize_causality(self, seed):
        rng = random.Random(seed)
        g = generators.double_star(2, 2)
        ex = random_execution(g, rng, steps=20)
        vectors = offline_vector_timestamps(ex)
        assert vectors is not None
        assert verify_offline_vectors(ex, vectors)

    def test_offline_beats_online_on_stars(self):
        """The headline gap: offline vectors are tiny where online needs n."""
        rng = random.Random(4)
        g = generators.star(8)
        ex = random_execution(g, rng, steps=40, deliver_all=True)
        vectors = offline_vector_timestamps(ex)
        assert vectors is not None
        k = len(next(iter(vectors.values())))
        assert k < 8  # online lower bound is n = 8 (Lemma 2.2)

    def test_charron_bost_needs_full_width(self):
        """On the dimension-n execution the heuristic cannot go below n."""
        n = 4
        ex, _witness = charron_bost_execution(n)
        vectors = offline_vector_timestamps(ex)
        assert vectors is not None
        k = len(next(iter(vectors.values())))
        assert k >= n  # certified dimension lower bound
        assert verify_offline_vectors(ex, vectors)

    def test_single_event_execution(self):
        b = ExecutionBuilder(2)
        b.local(0)
        ex = b.freeze()
        vectors = offline_vector_timestamps(ex)
        assert vectors is not None and len(vectors) == 1
