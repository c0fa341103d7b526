"""Tests for vertex-cover computation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import generators
from repro.topology.graph import CommunicationGraph
from repro.topology.vertex_cover import (
    best_cover,
    exact_minimum_cover,
    greedy_degree_cover,
    matching_cover,
)


KNOWN_OPTIMA = [
    (generators.star(6), 1),
    (generators.clique(5), 4),
    (generators.cycle(6), 3),
    (generators.cycle(7), 4),  # ceil(7/2)
    (generators.path(5), 2),
    (generators.complete_bipartite(2, 5), 2),
    (generators.double_star(3, 3), 2),
    (generators.caterpillar(3, 2), 3),
]


class TestExactCover:
    @pytest.mark.parametrize("graph,opt", KNOWN_OPTIMA)
    def test_known_optima(self, graph, opt):
        cover = exact_minimum_cover(graph)
        assert len(cover) == opt
        assert graph.is_vertex_cover(cover)

    def test_edgeless_graph(self):
        g = CommunicationGraph(4, [])
        assert exact_minimum_cover(g) == []

    def test_budget_exhaustion_raises(self):
        rng = random.Random(0)
        g = generators.erdos_renyi(30, 0.5, rng)
        with pytest.raises(RuntimeError):
            exact_minimum_cover(g, node_budget=2)


class TestHeuristics:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 15))
    def test_matching_cover_is_2_approx(self, seed, n):
        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.3, rng)
        approx = matching_cover(g)
        assert g.is_vertex_cover(approx)
        opt = exact_minimum_cover(g)
        assert len(approx) <= 2 * max(1, len(opt))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 15))
    def test_greedy_produces_cover(self, seed, n):
        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.3, rng)
        assert g.is_vertex_cover(greedy_degree_cover(g))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_best_cover_no_worse_than_heuristics(self, seed, n):
        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.35, rng)
        best = best_cover(g)
        assert g.is_vertex_cover(best)
        assert len(best) <= len(matching_cover(g))
        assert len(best) <= len(greedy_degree_cover(g))
        assert len(best) == len(exact_minimum_cover(g))

