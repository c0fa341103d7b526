"""Tests for the analytic size model (Theorems 4.2 / 4.3)."""

import math

import pytest

from repro.analysis.size_model import (
    compare_sizes,
    counter_bits,
    crossover_cover_size,
    id_bits,
    inline_bits,
    inline_elements,
    inline_wins_bits,
    vector_bits,
    vector_elements,
)


class TestFormulas:
    def test_counter_bits(self):
        assert counter_bits(0) == 1
        assert counter_bits(1) == 1
        assert counter_bits(7) == 3
        assert counter_bits(8) == 4

    def test_id_bits(self):
        assert id_bits(1) == 1
        assert id_bits(2) == 1
        assert id_bits(8) == 3
        assert id_bits(9) == 4

    def test_inline_elements_matches_theorem_4_2(self):
        assert inline_elements(1) == 4  # star: the paper's "4 elements"
        assert inline_elements(3) == 8

    def test_inline_bits_matches_theorem_4_3(self):
        n, k, vc = 16, 100, 2
        expected = (2 * vc + 1) * math.ceil(math.log2(k + 1)) + math.ceil(
            math.log2(n)
        )
        assert inline_bits(n, k, vc) == expected

    def test_vector_sizes(self):
        assert vector_elements(10) == 10
        assert vector_bits(10, 7) == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            inline_elements(-1)
        with pytest.raises(ValueError):
            vector_elements(0)
        with pytest.raises(ValueError):
            counter_bits(-1)


class TestCrossover:
    def test_paper_condition_elements(self):
        """Inline wins in element count iff |VC| < n/2 - 1."""
        for n in range(4, 40):
            for vc in range(0, n):
                wins = inline_elements(vc) < vector_elements(n)
                assert wins == (vc < n / 2 - 1)

    def test_star_wins_for_large_n(self):
        assert inline_wins_bits(n_processes=16, max_events=100, cover_size=1)

    def test_tiny_system_vector_wins(self):
        # n=3, cover=1: inline has 3 counters + id vs 3 counters
        assert not inline_wins_bits(n_processes=3, max_events=100, cover_size=1)

    def test_crossover_monotone_in_n(self):
        prev = -2
        for n in (8, 16, 32, 64, 128):
            c = crossover_cover_size(n, max_events=1000)
            assert c >= prev
            prev = c

    def test_crossover_value(self):
        c = crossover_cover_size(64, max_events=1000)
        # all covers up to c win, c+1 does not
        assert inline_wins_bits(64, 1000, c)
        assert not inline_wins_bits(64, 1000, c + 1)


class TestSweep:
    def test_rows(self):
        rows = [compare_sizes(n, k, {8: 1, 16: 2}[n]) for n in (8, 16) for k in (10, 100)]
        for row in rows:
            assert row.inline_elements == 2 * row.cover_size + 2
            assert row.bit_ratio > 0

    def test_compare_sizes_consistency(self):
        row = compare_sizes(16, 100, 1)
        assert row.inline_smaller == (row.inline_bits < row.vector_bits)
