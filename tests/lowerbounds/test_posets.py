"""Tests for poset utilities and the order-dimension-2 decision."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.random_executions import random_execution
from repro.lowerbounds.posets import (
    Poset,
    has_dimension_at_most_2,
    realizer2,
    transitive_orientation,
    two_element_vectors,
)
from repro.topology import generators
from tests.helpers import standard_example


class TestPosetBasics:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Poset([1, 1], set())

    def test_rejects_reflexive(self):
        with pytest.raises(ValueError):
            Poset([1], {(1, 1)})

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            Poset([1, 2], {(1, 2), (2, 1)})

    def test_rejects_nontransitive(self):
        with pytest.raises(ValueError):
            Poset([1, 2, 3], {(1, 2), (2, 3)})

    def test_unknown_element_in_relation(self):
        with pytest.raises(ValueError):
            Poset([1], {(1, 2)})

    def test_incomparable_pairs(self):
        p = Poset([1, 2, 3], {(1, 3)})
        pairs = {frozenset(q) for q in p.incomparable_pairs()}
        assert pairs == {frozenset({1, 2}), frozenset({2, 3})}

    def test_linear_extension_check(self):
        p = Poset([1, 2, 3], {(1, 2), (1, 3)})
        assert p.is_linear_extension([1, 2, 3])
        assert p.is_linear_extension([1, 3, 2])
        assert not p.is_linear_extension([2, 1, 3])
        assert not p.is_linear_extension([1, 2])

    def test_from_execution(self, small_star_execution):
        p = Poset.from_execution(small_star_execution)
        assert len(p) == small_star_execution.n_events


class TestCrowns:
    def test_crown_2_has_dimension_2(self):
        assert has_dimension_at_most_2(standard_example(2))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_higher_crowns_exceed_2(self, k):
        assert not has_dimension_at_most_2(standard_example(k))


class TestTransitiveOrientation:
    def test_path_graph_orientable(self):
        # P3 (a-b-c) is a comparability graph
        got = transitive_orientation(["a", "b", "c"],
                                     {frozenset("ab"), frozenset("bc")})
        assert got is not None

    def test_odd_cycle_not_orientable(self):
        # C5 is not a comparability graph
        edges = {frozenset((i, (i + 1) % 5)) for i in range(5)}
        assert transitive_orientation(list(range(5)), edges) is None

    def test_even_cycle_orientable(self):
        edges = {frozenset((i, (i + 1) % 6)) for i in range(6)}
        assert transitive_orientation(list(range(6)), edges) is not None

    def test_orientation_is_transitive(self):
        vertices = list(range(4))
        edges = {frozenset((i, j)) for i in range(4) for j in range(i + 1, 4)}
        got = transitive_orientation(vertices, edges)
        assert got is not None
        directed = set(got)
        for a, b in directed:
            for c, d in directed:
                if b == c:
                    assert (a, d) in directed


class TestRealizers:
    def test_chain(self):
        p = Poset([1, 2, 3], {(1, 2), (2, 3), (1, 3)})
        r = realizer2(p)
        assert r is not None
        l1, l2 = r
        assert p.is_linear_extension(l1)
        assert p.is_linear_extension(l2)

    def test_antichain_realizer_reverses(self):
        p = Poset([1, 2, 3], set())
        l1, l2 = realizer2(p)
        assert list(reversed(l1)) == l2 or set(l1) == set(l2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_two_element_vectors_realize_poset(self, seed):
        """Whenever vectors are produced, they must realize the poset
        exactly under the standard comparison."""
        rng = random.Random(seed)
        ex = random_execution(generators.star(4), rng, steps=12)
        p = Poset.from_execution(ex)
        vecs = two_element_vectors(p)
        if vecs is None:
            assert not has_dimension_at_most_2(p)
            return
        elems = list(p.elements)
        assert len({v for v in vecs.values()}) == len(elems)  # distinct
        for a in elems:
            for b in elems:
                if a == b:
                    continue
                va, vb = vecs[a], vecs[b]
                claimed = va[0] <= vb[0] and va[1] <= vb[1] and va != vb
                assert claimed == p.lt(a, b), (a, b, va, vb)

    def test_crown3_has_no_realizer(self):
        assert realizer2(standard_example(3)) is None
        assert two_element_vectors(standard_example(3)) is None
