"""Tests for connectivity, cut vertices, and the Lemma-2.4 set X."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import generators
from repro.topology.graph import CommunicationGraph
from repro.topology.properties import (
    adversary_diameter,
    articulation_points,
    lemma_2_4_set_x,
    vertex_connectivity,
)


class TestArticulationPoints:
    def test_star_center_is_cut(self):
        g = generators.star(5)
        assert articulation_points(g) == {0}

    def test_cycle_has_none(self):
        assert articulation_points(generators.cycle(6)) == set()

    def test_path_interior_vertices(self):
        assert articulation_points(generators.path(5)) == {1, 2, 3}

    def test_double_star_hubs(self):
        g = generators.double_star(2, 2)
        assert articulation_points(g) == {0, 1}

    def test_disconnected(self):
        g = CommunicationGraph(4, [(0, 1), (2, 3)])
        assert articulation_points(g) == set()


class TestSetX:
    def test_star(self):
        """For a star, X is all radial processes: |X| = n-1 (paper text)."""
        g = generators.star(7)
        x = lemma_2_4_set_x(g)
        assert x == set(range(1, 7))
        assert len(x) == 6

    def test_2_connected_graph_x_is_everything(self):
        g = generators.cycle(5)
        assert lemma_2_4_set_x(g) == set(range(5))


class TestVertexConnectivity:
    @pytest.mark.parametrize(
        "graph,kappa",
        [
            (generators.star(5), 1),
            (generators.path(4), 1),
            (generators.cycle(6), 2),
            (generators.clique(5), 4),
            (generators.wheel(7), 3),
            (generators.complete_bipartite(2, 4), 2),
            (generators.theta_graph([1, 1, 1]), 2),
        ],
    )
    def test_known_values(self, graph, kappa):
        assert vertex_connectivity(graph) == kappa

    def test_disconnected_is_zero(self):
        g = CommunicationGraph(4, [(0, 1)])
        assert vertex_connectivity(g) == 0

    def test_single_vertex(self):
        g = CommunicationGraph(1, [])
        assert vertex_connectivity(g) == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(3, 10))
    def test_connectivity_vs_min_degree(self, seed, n):
        """κ(G) <= δ(G) always."""
        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.4, rng)
        kappa = vertex_connectivity(g)
        min_deg = min(g.degree(v) for v in g.vertices())
        assert kappa <= min_deg

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(3, 9))
    def test_connectivity_matches_bruteforce(self, seed, n):
        """Cross-check with brute-force minimal separating sets."""
        from itertools import combinations

        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.45, rng)
        kappa = vertex_connectivity(g)
        if g.n_edges == n * (n - 1) // 2:
            assert kappa == n - 1
            return
        brute = None
        for k in range(n):
            for subset in combinations(range(n), k):
                remaining = [v for v in range(n) if v not in subset]
                if len(remaining) < 2:
                    continue
                comps = g.connected_components(ignore=subset)
                if len(comps) > 1:
                    brute = k
                    break
            if brute is not None:
                break
        assert brute is not None
        assert kappa == brute


class TestAdversaryDiameter:
    def test_cycle(self):
        g = generators.cycle(6)
        # removing one vertex from C6 leaves P5 with diameter 4
        assert adversary_diameter(g, set(range(6))) == 4

    def test_clique(self):
        g = generators.clique(5)
        assert adversary_diameter(g, set(range(5))) == 1
