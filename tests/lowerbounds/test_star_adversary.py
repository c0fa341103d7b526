"""Tests for the Lemma 2.1 / 2.2 star adversaries."""

import pytest

from repro.clocks import VectorClock
from repro.lowerbounds import (
    DroppedCoordinateScheme,
    FoldedVectorScheme,
    ProjectedVectorScheme,
    ViolationKind,
    star_adversary_integer,
    star_adversary_real,
)


class TestLemma21RealValued:
    """Any scheme of length <= n-2 (real entries allowed) is refuted."""

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_projected_schemes_refuted(self, n):
        result = star_adversary_real(
            lambda nn: ProjectedVectorScheme(nn, nn - 2, seed=1), n
        )
        assert result.refuted
        assert result.vector_length == n - 2

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_short_folded_schemes_refuted(self, s):
        n = 6
        result = star_adversary_real(lambda nn: FoldedVectorScheme(nn, s), n)
        assert result.refuted

    def test_violation_on_predicted_pair(self):
        """The adversary's pair (e_1^k, e_{n-2}^0) is the mis-ordered one."""
        result = star_adversary_real(
            lambda nn: ProjectedVectorScheme(nn, nn - 2, seed=3), 6
        )
        assert result.refuted
        assert result.predicted_pair is not None
        v = result.violation
        assert v is not None
        assert {v.e, v.f} == set(result.predicted_pair)
        assert v.kind is ViolationKind.FALSE_POSITIVE

    def test_full_vector_survives(self):
        for n in (3, 5, 8):
            result = star_adversary_real(VectorClock, n)
            assert not result.refuted
            assert result.report.valid

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            star_adversary_real(VectorClock, 2)

    def test_execution_shape(self):
        """n-1 radial sends, n-1 central receives."""
        result = star_adversary_real(
            lambda nn: ProjectedVectorScheme(nn, 2, seed=0), 5
        )
        ex = result.execution
        assert len(ex.events_at(0)) == 4
        for p in range(1, 5):
            assert len(ex.events_at(p)) == 1


class TestLemma22IntegerValued:
    """Any integer scheme of length <= n-1 is refuted on the star."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_folded_n_minus_1_refuted(self, n):
        result = star_adversary_integer(
            lambda nn: FoldedVectorScheme(nn, nn - 1), n
        )
        assert result.refuted
        assert result.vector_length == n - 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_dropped_center_refuted(self, n):
        result = star_adversary_integer(
            lambda nn: DroppedCoordinateScheme(nn, dropped=0), n
        )
        assert result.refuted

    def test_full_vector_survives(self):
        for n in (3, 5):
            result = star_adversary_integer(VectorClock, n)
            assert not result.refuted

    def test_real_schemes_rejected(self):
        with pytest.raises(ValueError):
            star_adversary_integer(
                lambda nn: ProjectedVectorScheme(nn, 2), 5
            )

    def test_centre_prefix_length(self):
        """The centre performs P = (M+2)*n local events before receiving."""
        n = 4
        result = star_adversary_integer(
            lambda nn: FoldedVectorScheme(nn, nn - 1), n
        )
        ex = result.execution
        centre_events = ex.events_at(0)
        n_local = sum(1 for ev in centre_events if ev.is_local)
        # M = 1 for folded clocks on first events -> P = 3n
        assert n_local == 3 * n

    def test_violation_is_concrete(self):
        result = star_adversary_integer(
            lambda nn: FoldedVectorScheme(nn, nn - 1), 5
        )
        v = result.violation
        assert v is not None
        assert "vec" in v.describe()
