"""Tests for the Lemma 2.3 / 2.4 flooding adversaries."""

import pytest

from repro.clocks import VectorClock
from repro.lowerbounds import (
    FoldedVectorScheme,
    flooding_adversary,
)
from repro.topology import generators
from repro.topology.properties import lemma_2_4_set_x


class TestLemma23:
    """2-connected graphs force vector length n."""

    @pytest.mark.parametrize(
        "graph",
        [
            generators.cycle(5),
            generators.cycle(7),
            generators.wheel(6),
            generators.clique(4),
            generators.theta_graph([1, 2]),
            generators.complete_bipartite(2, 3),
        ],
        ids=["cycle5", "cycle7", "wheel6", "clique4", "theta", "K23"],
    )
    def test_short_schemes_refuted(self, graph):
        n = graph.n_vertices
        result = flooding_adversary(
            lambda nn: FoldedVectorScheme(nn, nn - 1), graph
        )
        assert result.refuted, graph
        assert result.lemma == "2.3"

    def test_full_vector_survives(self):
        graph = generators.cycle(5)
        result = flooding_adversary(VectorClock, graph)
        assert not result.refuted
        assert result.report.valid

    def test_rejects_low_connectivity(self):
        with pytest.raises(ValueError):
            flooding_adversary(
                VectorClock, generators.path(4)
            )

    def test_flooding_reaches_completion(self):
        """Some process receives all non-victim tokens."""
        graph = generators.cycle(6)
        result = flooding_adversary(
            lambda nn: FoldedVectorScheme(nn, nn - 1), graph
        )
        assert result.predicted_pair is not None


class TestLemma24:
    """Connectivity-1 graphs force vector length >= |X|."""

    @pytest.mark.parametrize(
        "graph",
        [generators.star(6), generators.double_star(3, 3), generators.path(5)],
        ids=["star6", "double_star", "path5"],
    )
    def test_short_schemes_refuted(self, graph):
        x = lemma_2_4_set_x(graph)
        s = len(x) - 1
        result = flooding_adversary(
            lambda nn: FoldedVectorScheme(nn, s), graph, restrict_to_x=True
        )
        assert result.refuted
        assert result.lemma == "2.4"

    def test_full_vector_survives(self):
        graph = generators.star(5)
        result = flooding_adversary(
            VectorClock, graph, restrict_to_x=True
        )
        assert not result.refuted

    def test_rejects_2_connected(self):
        with pytest.raises(ValueError):
            flooding_adversary(
                VectorClock,
                generators.cycle(5),
                restrict_to_x=True,
            )

    def test_star_x_is_radials(self):
        """Sanity: the paper's observation |X| = n-1 on stars."""
        assert len(lemma_2_4_set_x(generators.star(8))) == 7
