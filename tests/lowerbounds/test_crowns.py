"""Tests for crown-embedding search."""

import pytest

from repro.lowerbounds.charron_bost import charron_bost_execution
from repro.lowerbounds.crowns import find_crown, is_crown_embedding
from repro.lowerbounds.posets import Poset
from tests.helpers import standard_example


class TestEmbeddingChecker:
    def test_accepts_literal_crown(self):
        p = standard_example(3)
        a = [("a", i) for i in range(3)]
        b = [("b", i) for i in range(3)]
        assert is_crown_embedding(p.lt, a, b)

    def test_rejects_wrong_pairing(self):
        p = standard_example(3)
        a = [("a", 0), ("a", 1), ("a", 2)]
        b = [("b", 1), ("b", 2), ("b", 0)]  # rotated: a0 < b1 is paired
        assert not is_crown_embedding(p.lt, a, b)

    def test_rejects_duplicates(self):
        p = standard_example(3)
        a = [("a", 0), ("a", 0), ("a", 2)]
        b = [("b", 0), ("b", 1), ("b", 2)]
        assert not is_crown_embedding(p.lt, a, b)


class TestSearch:
    def test_finds_crown_in_standard_example(self):
        for k in (3, 4):
            p = standard_example(k)
            found = find_crown(p, k)
            assert found is not None
            assert is_crown_embedding(p.lt, found[0], found[1])

    def test_no_oversized_crown_in_small_example(self):
        p = standard_example(3)
        assert find_crown(p, 4) is None

    def test_no_crown_in_chain(self):
        p = Poset([1, 2, 3, 4], {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})
        assert find_crown(p, 3) is None

    def test_k_validation(self):
        with pytest.raises(ValueError):
            find_crown(standard_example(3), 1)

    def test_budget_exhaustion(self):
        p = standard_example(5)
        with pytest.raises(RuntimeError):
            find_crown(p, 5, node_budget=1)

    def test_charron_bost_crowns_rediscovered(self):
        """The search finds the crown inside the Charron-Bost executions
        without being told where it is."""
        for n in (3, 4):
            ex, _witness = charron_bost_execution(n)
            p = Poset.from_execution(ex)
            found = find_crown(p, n)
            assert found is not None

