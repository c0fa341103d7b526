"""Tests for the vector-assignment checker."""

import random

import pytest

from repro.clocks.replay import replay_one
from repro.core import ExecutionBuilder
from repro.core.backend import NUMPY_MIN_EVENTS, numpy_available, use_backend
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.lowerbounds.online import (
    DroppedCoordinateScheme,
    FoldedVectorScheme,
    ProjectedVectorScheme,
)
from repro.lowerbounds.verify import (
    Violation,
    ViolationKind,
    check_vector_assignment,
)
from repro.obs import MetricsRegistry, use_registry
from repro.topology import generators


def two_concurrent_events():
    b = ExecutionBuilder(2)
    b.local(0)
    b.local(1)
    return b.freeze()


def ordered_pair():
    b = ExecutionBuilder(2)
    m = b.send(0, 1)
    b.receive(1, m)
    return b.freeze()


class TestChecker:
    def test_valid_assignment(self):
        ex = ordered_pair()
        vectors = {EventId(0, 1): (1, 0), EventId(1, 1): (1, 1)}
        report = check_vector_assignment(ex, vectors)
        assert report.valid
        assert report.vector_length == 2

    def test_false_positive_detected(self):
        ex = two_concurrent_events()
        vectors = {EventId(0, 1): (1,), EventId(1, 1): (2,)}
        report = check_vector_assignment(ex, vectors)
        assert not report.valid
        v = report.first(ViolationKind.FALSE_POSITIVE)
        assert v is not None
        assert {v.e, v.f} == {EventId(0, 1), EventId(1, 1)}

    def test_false_negative_detected(self):
        ex = ordered_pair()
        vectors = {EventId(0, 1): (2, 0), EventId(1, 1): (1, 1)}
        report = check_vector_assignment(ex, vectors)
        assert report.first(ViolationKind.FALSE_NEGATIVE) is not None

    def test_duplicate_detected(self):
        ex = two_concurrent_events()
        vectors = {EventId(0, 1): (1, 1), EventId(1, 1): (1, 1)}
        report = check_vector_assignment(ex, vectors)
        assert report.first(ViolationKind.DUPLICATE) is not None

    def test_missing_vector_rejected(self):
        ex = ordered_pair()
        with pytest.raises(ValueError):
            check_vector_assignment(ex, {EventId(0, 1): (1,)})

    def test_inconsistent_lengths_rejected(self):
        ex = two_concurrent_events()
        with pytest.raises(ValueError):
            check_vector_assignment(
                ex, {EventId(0, 1): (1,), EventId(1, 1): (1, 2)}
            )

    def test_counters_count_decoded_bits(self):
        """``validate.mismatch_decodes`` counts decoded mismatch bits, as for
        ``validate``: a concurrent duplicate decodes none, an ordered one
        decodes its missed ordering and still reports one duplicate."""
        for ex, n_decoded in ((two_concurrent_events(), 0), (ordered_pair(), 1)):
            vectors = {ev.eid: (1, 1) for ev in ex.all_events()}
            registry = MetricsRegistry()
            with use_registry(registry):
                report = check_vector_assignment(ex, vectors)
            assert [v.kind for v in report.violations] == [
                ViolationKind.DUPLICATE
            ]
            counters = registry.as_dict()["counters"]
            assert counters["validate.mismatch_decodes"] == n_decoded
            assert counters["validate.cells"] == 4
            assert counters["validate.runs"] == 1

    def test_describe(self):
        ex = two_concurrent_events()
        vectors = {EventId(0, 1): (1,), EventId(1, 1): (2,)}
        report = check_vector_assignment(ex, vectors)
        assert "false_positive" in report.violations[0].describe()


# ----------------------------------------------------------------------
# the matrix checker against a pairwise reference, on both kernels
# ----------------------------------------------------------------------
def pairwise_reference(execution, vectors):
    """Violations in the checker's order, one pair at a time: pair-major
    over ``all_events()`` positions, a duplicate replacing the pair's two
    direction checks, direction min->max first."""
    from repro.clocks.base import vector_lt
    from repro.core import HappenedBeforeOracle

    hb = HappenedBeforeOracle(execution, backend="pure").happened_before
    ids = [ev.eid for ev in execution.all_events()]
    out = []
    for i, e in enumerate(ids):
        for f in ids[i + 1 :]:
            ve, vf = vectors[e], vectors[f]
            if ve == vf:
                out.append(Violation(ViolationKind.DUPLICATE, e, f, ve, vf))
                continue
            for a, b, va, vb in ((e, f, ve, vf), (f, e, vf, ve)):
                if hb(a, b) != vector_lt(va, vb):
                    kind = (
                        ViolationKind.FALSE_NEGATIVE
                        if hb(a, b)
                        else ViolationKind.FALSE_POSITIVE
                    )
                    out.append(Violation(kind, a, b, va, vb))
    return out


CANDIDATES = {
    "folded": lambda n: FoldedVectorScheme(n, n // 2),
    "folded-1": lambda n: FoldedVectorScheme(n, 1),
    "projected": lambda n: ProjectedVectorScheme(n, n - 2, seed=3),
    "dropped": lambda n: DroppedCoordinateScheme(n, dropped=0),
}
KERNELS = ["pure"] + (["numpy"] if numpy_available() else [])


class TestPairwiseReference:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("candidate", sorted(CANDIDATES))
    def test_matches_reference_above_numpy_threshold(self, kernel, candidate):
        rng = random.Random(candidate)
        graph = generators.erdos_renyi(6, 0.5, rng)
        ex = random_execution(graph, rng, steps=560, deliver_all=True)
        assert sum(ex.event_counts()) >= NUMPY_MIN_EVENTS
        vectors = {
            eid: ts.vector
            for eid, ts in replay_one(ex, CANDIDATES[candidate](6)).items()
        }
        with use_backend(kernel):
            report = check_vector_assignment(ex, vectors)
        assert list(report.violations) == pairwise_reference(ex, vectors)
        assert report.violations  # every candidate is refuted here
