"""Tests for star/triangle edge decompositions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sync.decomposition import (
    Component,
    Decomposition,
    best_decomposition,
    star_decomposition,
    star_triangle_decomposition,
)
from repro.topology import generators
from repro.topology.graph import CommunicationGraph


class TestComponent:
    def test_star_component(self):
        c = Component("star", center=0, edges=((0, 1), (0, 2)))
        assert c.vertices == {0, 1, 2}
        assert (0, 2) in c.edges

    def test_triangle_component(self):
        c = Component("triangle", center=-1,
                      edges=((0, 1), (0, 2), (1, 2)))
        assert c.vertices == {0, 1, 2}

    def test_star_edges_must_touch_hub(self):
        with pytest.raises(ValueError):
            Component("star", center=0, edges=((1, 2),))

    def test_triangle_needs_three_edges(self):
        with pytest.raises(ValueError):
            Component("triangle", center=-1, edges=((0, 1), (1, 2)))


class TestStarDecomposition:
    def test_star_graph_single_component(self):
        dec = star_decomposition(generators.star(6))
        assert dec.d == 1
        assert dec.components[0].center == 0

    def test_partition_property_validated(self):
        g = generators.double_star(2, 2)
        dec = star_decomposition(g)
        # every edge is in exactly one component (validated on build)
        assert dec.d == 2

    def test_bad_cover_rejected(self):
        with pytest.raises(ValueError):
            star_decomposition(generators.star(4), cover=[1])

    def test_component_lookup(self):
        g = generators.double_star(2, 2)
        dec = star_decomposition(g, cover=[0, 1])
        j = dec.component_of_edge(0, 2)
        assert dec.components[j].center == 0
        with pytest.raises(KeyError):
            dec.component_of_edge(2, 3)

    def test_components_of_vertex(self):
        g = generators.double_star(2, 2)
        dec = star_decomposition(g, cover=[0, 1])
        # the bridge endpoint 0 touches its own star; edge (0,1) is in one
        # of the two components
        assert dec.components_of_vertex(2) == (0,)


class TestTriangleDecomposition:
    def test_triangle_graph_uses_one_component(self):
        g = generators.clique(3)
        dec = star_triangle_decomposition(g)
        assert dec.d == 1
        assert dec.components[0].kind == "triangle"
        # pure stars need 2 components on K3
        assert star_decomposition(g).d == 2

    def test_k4_beats_pure_stars(self):
        g = generators.clique(4)
        tri = star_triangle_decomposition(g)
        stars = star_decomposition(g)
        assert tri.d <= stars.d

    def test_triangle_free_graph_falls_back_to_stars(self):
        g = generators.cycle(6)
        dec = star_triangle_decomposition(g)
        assert all(c.kind == "star" for c in dec.components)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
    def test_valid_partition_on_random_graphs(self, seed, n):
        rng = random.Random(seed)
        g = generators.erdos_renyi(n, 0.35, rng)
        for dec in (
            star_decomposition(g),
            star_triangle_decomposition(g),
            best_decomposition(g),
        ):
            # Decomposition.__post_init__ validates the partition; touch
            # the lookups too
            for u, v in g.edges:
                j = dec.component_of_edge(u, v)
                assert (min(u, v), max(u, v)) in dec.components[j].edges

    def test_within_component_messages_share_endpoint(self):
        """The structural fact the timestamps rely on."""
        rng = random.Random(7)
        g = generators.erdos_renyi(8, 0.4, rng)
        dec = star_triangle_decomposition(g)
        for comp in dec.components:
            for e1 in comp.edges:
                for e2 in comp.edges:
                    assert set(e1) & set(e2) or e1 == e2
