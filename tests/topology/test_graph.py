"""Tests for CommunicationGraph."""

import pytest

from repro.topology.graph import CommunicationGraph


class TestConstruction:
    def test_basic(self):
        g = CommunicationGraph(3, [(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_duplicates_and_orientation_collapse(self):
        g = CommunicationGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CommunicationGraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CommunicationGraph(2, [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CommunicationGraph(0, [])

    def test_equality_and_hash(self):
        g1 = CommunicationGraph(3, [(0, 1)])
        g2 = CommunicationGraph(3, [(1, 0)])
        g3 = CommunicationGraph(3, [(0, 2)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != g3

    def test_degree_and_neighbors(self):
        g = CommunicationGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.neighbors(0) == frozenset({1, 2, 3})
        assert g.degree(1) == 1


class TestQueries:
    def test_vertex_cover_check(self):
        g = CommunicationGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.is_vertex_cover([0])
        assert g.is_vertex_cover([1, 2, 3])
        assert not g.is_vertex_cover([1, 2])

    def test_connected_components(self):
        g = CommunicationGraph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]

    def test_components_with_ignore(self):
        g = CommunicationGraph(3, [(0, 1), (1, 2)])
        comps = g.connected_components(ignore={1})
        assert sorted(sorted(c) for c in comps) == [[0], [2]]

    def test_is_connected(self):
        assert CommunicationGraph(3, [(0, 1), (1, 2)]).is_connected()
        assert not CommunicationGraph(3, [(0, 1)]).is_connected()

    def test_bfs_distances(self):
        g = CommunicationGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.bfs_distances(0) == [0, 1, 2, 3]
        assert g.bfs_distances(0, ignore={1}) == [0, -1, -1, -1]

    def test_diameter(self):
        g = CommunicationGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.diameter() == 3

    def test_diameter_disconnected_raises(self):
        g = CommunicationGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.diameter()
