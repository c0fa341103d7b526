"""Tests for the Charron-Bost dimension-n construction."""

import pytest

from repro.core import HappenedBeforeOracle
from repro.lowerbounds.charron_bost import (
    CrownWitness,
    certified_dimension_lower_bound,
    charron_bost_execution,
)
from repro.lowerbounds.crowns import is_crown_embedding
from repro.lowerbounds.posets import Poset, has_dimension_at_most_2
from tests.helpers import standard_example


class TestConstruction:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_crown_verifies(self, n):
        ex, witness = charron_bost_execution(n)
        oracle = HappenedBeforeOracle(ex)
        assert is_crown_embedding(
            oracle.happened_before, witness.a_events, witness.b_events
        )
        assert witness.dimension_lower_bound == n

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            charron_bost_execution(2)

    def test_event_counts(self):
        ex, _w = charron_bost_execution(4)
        # each process: 3 sends + 2 receives (one broadcast withheld)
        for p in range(4):
            assert len(ex.events_at(p)) == 5
        assert len(ex.undelivered_messages()) == 4

    def test_induced_subposet_is_the_crown(self):
        ex, witness = charron_bost_execution(3)
        poset = Poset.from_execution(ex)
        induced = list(witness.a_events) + list(witness.b_events)
        crown = standard_example(3)
        # same relation profile: count of ordered pairs matches
        induced_pairs = sum(
            1 for x in induced for y in induced if x != y and poset.lt(x, y)
        )
        crown_pairs = sum(
            1
            for x in crown.elements
            for y in crown.elements
            if x != y and crown.lt(x, y)
        )
        assert induced_pairs == crown_pairs == 6  # k(k-1) = 6 for k=3

    def test_dimension_exceeds_2_for_n3(self):
        ex, _w = charron_bost_execution(3)
        assert not has_dimension_at_most_2(Poset.from_execution(ex))

    def test_certified_bound(self):
        assert certified_dimension_lower_bound(5) == 5


class TestVerifierRejectsBrokenWitnesses:
    def test_duplicate_events_rejected(self):
        ex, witness = charron_bost_execution(3)
        oracle = HappenedBeforeOracle(ex)
        broken = CrownWitness(
            witness.a_events, (witness.b_events[0],) + witness.b_events[:2]
        )
        assert not is_crown_embedding(
            oracle.happened_before, broken.a_events, broken.b_events
        )

    def test_wrong_pairing_rejected(self):
        ex, witness = charron_bost_execution(3)
        oracle = HappenedBeforeOracle(ex)
        # rotate the b side: pairs are now causally related
        rotated = CrownWitness(
            witness.a_events,
            witness.b_events[1:] + witness.b_events[:1],
        )
        assert not is_crown_embedding(
            oracle.happened_before, rotated.a_events, rotated.b_events
        )
