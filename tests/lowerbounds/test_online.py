"""Tests for the candidate online vector schemes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import VectorClock
from repro.clocks.replay import replay_one
from repro.core import ExecutionBuilder
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.lowerbounds.online import (
    DroppedCoordinateScheme,
    FoldedVectorScheme,
    ProjectedVectorScheme,
)
from repro.lowerbounds.verify import check_vector_assignment
from repro.topology import generators


def drive(scheme, execution):
    """Replay an execution through a vector clock; return its vectors."""
    return {eid: ts.vector for eid, ts in replay_one(execution, scheme).items()}


def small_star_run(n):
    return random_execution(generators.star(n), random.Random(0), steps=12)


class TestFullVector:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_always_valid(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(5, 0.4, rng)
        ex = random_execution(g, rng, steps=25)
        vectors = drive(VectorClock(5), ex)
        assert check_vector_assignment(ex, vectors).valid

    def test_length(self):
        vectors = drive(VectorClock(7), small_star_run(7)).values()
        assert {len(v) for v in vectors} == {7}
        assert all(isinstance(x, int) for v in vectors for x in v)


class TestFoldedVector:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            FoldedVectorScheme(4, 0)

    def test_payload_is_the_full_vector(self):
        scheme = FoldedVectorScheme(3, 1)
        assert scheme.record_send(0, 1, 1) == (1, 0, 0)
        scheme.record_receive(1, 1, 0, (1, 0, 0))
        assert scheme.timestamp(EventId(1, 1)).vector == (2,)
        assert not scheme.characterizes_causality

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), s=st.integers(1, 3))
    def test_consistent_never_false_negative(self, seed, s):
        """Folding is monotone: causally ordered events stay ordered."""
        rng = random.Random(seed)
        g = generators.star(5)
        ex = random_execution(g, rng, steps=25)
        vectors = drive(FoldedVectorScheme(5, s), ex)
        report = check_vector_assignment(ex, vectors)
        from repro.lowerbounds.verify import ViolationKind

        assert report.first(ViolationKind.FALSE_NEGATIVE) is None

    def test_folding_sums_coordinates(self):
        b = ExecutionBuilder(4)
        b.local(0)
        b.local(2)
        ex = b.freeze()
        vectors = drive(FoldedVectorScheme(4, 2), ex)
        # process 0 -> coord 0, process 2 -> coord 0 as well
        assert vectors[EventId(0, 1)][0] == 1
        assert vectors[EventId(2, 1)][0] == 1


class TestProjectedVector:
    def test_real_valued(self):
        vectors = drive(ProjectedVectorScheme(4, 2), small_star_run(4))
        assert all(isinstance(x, float) for v in vectors.values() for x in v)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), s=st.integers(1, 3))
    def test_strictly_monotone_on_causal_chains(self, seed, s):
        rng = random.Random(seed)
        g = generators.star(4)
        ex = random_execution(g, rng, steps=20)
        vectors = drive(ProjectedVectorScheme(4, s, seed=seed), ex)
        from repro.core import HappenedBeforeOracle

        oracle = HappenedBeforeOracle(ex)
        ids = [ev.eid for ev in ex.all_events()]
        for e in ids:
            for f in ids:
                if oracle.happened_before(e, f):
                    assert all(
                        a < b for a, b in zip(vectors[e], vectors[f])
                    )


class TestDroppedCoordinate:
    def test_length_is_n_minus_1(self):
        assert DroppedCoordinateScheme(5, 0).length == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DroppedCoordinateScheme(1, 0)
        with pytest.raises(ValueError):
            DroppedCoordinateScheme(3, 5)

    def test_dropped_process_events_collide(self):
        b = ExecutionBuilder(3)
        b.local(0)
        b.local(0)
        ex = b.freeze()
        vectors = drive(DroppedCoordinateScheme(3, dropped=0), ex)
        report = check_vector_assignment(ex, vectors)
        from repro.lowerbounds.verify import ViolationKind

        assert report.first(ViolationKind.DUPLICATE) is not None
