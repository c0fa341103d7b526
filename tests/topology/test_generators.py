"""Tests for topology generators."""

import random

import pytest

from repro.topology import generators
from repro.topology.properties import vertex_connectivity


class TestStar:
    def test_shape(self):
        g = generators.star(5)
        assert g.n_edges == 4
        assert g.degree(0) == 4
        assert all(g.degree(i) == 1 for i in range(1, 5))

    def test_center_is_cover(self):
        assert generators.star(6).is_vertex_cover([0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            generators.star(1)


class TestOtherFamilies:
    def test_clique(self):
        g = generators.clique(5)
        assert g.n_edges == 10

    def test_cycle(self):
        g = generators.cycle(5)
        assert g.n_edges == 5
        assert all(g.degree(v) == 2 for v in g.vertices())
        assert vertex_connectivity(g) == 2

    def test_path(self):
        g = generators.path(4)
        assert g.n_edges == 3
        assert vertex_connectivity(g) == 1

    def test_complete_bipartite(self):
        g = generators.complete_bipartite(2, 3)
        assert g.n_edges == 6
        assert g.is_vertex_cover([0, 1])

    def test_double_star(self):
        g = generators.double_star(2, 3)
        assert g.n_vertices == 7
        assert g.is_vertex_cover([0, 1])
        assert g.has_edge(0, 1)

    def test_wheel(self):
        g = generators.wheel(6)
        assert g.degree(0) == 5
        assert vertex_connectivity(g) == 3

    def test_caterpillar(self):
        g = generators.caterpillar(3, 2)
        assert g.n_vertices == 9
        assert g.is_vertex_cover([0, 1, 2])

    def test_theta_graph(self):
        g = generators.theta_graph([1, 2])
        assert vertex_connectivity(g) == 2

    def test_theta_rejects_double_edge(self):
        with pytest.raises(ValueError):
            generators.theta_graph([0, 0])


class TestRandomFamilies:
    def test_random_tree(self):
        rng = random.Random(0)
        g = generators.random_tree(10, rng)
        assert g.n_edges == 9
        assert g.is_connected()

    def test_erdos_renyi_connected(self):
        rng = random.Random(1)
        g = generators.erdos_renyi(12, 0.1, rng, ensure_connected=True)
        assert g.is_connected()

    def test_erdos_renyi_probability_bounds(self):
        with pytest.raises(ValueError):
            generators.erdos_renyi(5, 1.5, random.Random(0))


class TestSequencerArchitecture:
    def test_sequencers_form_cover(self):
        g, seqs = generators.sequencer_architecture(3, 4, 6)
        assert g.is_vertex_cover(seqs)
        assert seqs == [0, 1, 2]

    def test_no_direct_client_server_edges(self):
        g, seqs = generators.sequencer_architecture(2, 3, 3)
        non_seq = [v for v in g.vertices() if v not in seqs]
        for u in non_seq:
            for v in non_seq:
                assert not g.has_edge(u, v)

    def test_random_attachments(self):
        rng = random.Random(0)
        g, seqs = generators.sequencer_architecture(
            3, 4, 4, rng=rng, attachments_per_node=2
        )
        for v in range(3, g.n_vertices):
            assert len(set(g.neighbors(v)) & set(seqs)) == 2

    def test_attachment_bounds(self):
        with pytest.raises(ValueError):
            generators.sequencer_architecture(2, 1, 1, attachments_per_node=3)
