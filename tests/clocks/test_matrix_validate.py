"""Matrix-based validation against the pairwise reference.

``TimestampAssignment.validate`` compares a scheme's full precedes-matrix
against the oracle's causal-past rows with XOR + popcount; the contract is
a :class:`ValidationReport` identical — field for field, including mismatch
ordering — to ``validate_pairwise``.  These tests pin that contract for
every scheme (word-parallel fast paths and the pairwise fallback alike),
and pin the ``validate_sampled`` counting fix.
"""

import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baselines import ClusterClock, EncodedClock, PlausibleClock
from repro.baselines.hlc import HybridLogicalClock
from repro.clocks import (
    CoverInlineClock,
    LamportClock,
    StarInlineClock,
    VectorClock,
    replay,
)
from repro.clocks.base import precedes_matrix_rows
from repro.conformance.registry import all_schemes
from repro.core import HappenedBeforeOracle, incremental_from_execution
from repro.core.backend import numpy_available
from repro.core.random_executions import random_execution
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.topology import generators
from repro.topology.vertex_cover import best_cover


def algorithms_for(graph):
    n = graph.n_vertices
    algos = [
        CoverInlineClock(graph, tuple(best_cover(graph))),
        VectorClock(n),
        LamportClock(n),
        HybridLogicalClock(n),
        PlausibleClock(n, max(1, n // 2)),
        ClusterClock(n),
        EncodedClock(n),
    ]
    if graph.n_edges == n - 1 and all(
        graph.has_edge(0, v) for v in range(1, n)
    ):
        algos.append(StarInlineClock(n, center=0))
    return algos


GRAPHS = [
    generators.star(6),
    generators.double_star(2, 3),
    generators.cycle(5),
    generators.erdos_renyi(6, 0.4, random.Random(2)),
]


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n_vertices}")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_identical_to_pairwise(graph, seed):
    ex = random_execution(
        graph, random.Random(seed), steps=80, deliver_all=True
    )
    oracle = HappenedBeforeOracle(ex)
    for asg in replay(ex, algorithms_for(graph)):
        assert asg.validate(oracle) == asg.validate_pairwise(oracle), (
            asg.algorithm.name
        )


def test_validate_identical_on_event_subsets():
    graph = generators.star(5)
    ex = random_execution(graph, random.Random(7), steps=60,
                          deliver_all=True)
    oracle = HappenedBeforeOracle(ex)
    ids = [ev.eid for ev in ex.all_events()]
    rng = random.Random(9)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    subsets = [ids[::2], shuffled[: len(ids) // 2], ids[:1], []]
    for asg in replay(ex, algorithms_for(graph)):
        for subset in subsets:
            assert asg.validate(oracle, events=subset) == (
                asg.validate_pairwise(oracle, events=subset)
            ), (asg.algorithm.name, len(subset))


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n_vertices}")
def test_precedes_matrix_agrees_with_pairwise_precedes(graph):
    """Every word-parallel fast path is exactly the pairwise comparison."""
    ex = random_execution(graph, random.Random(13), steps=70,
                          deliver_all=True)
    for asg in replay(ex, algorithms_for(graph)):
        ts = [t for _eid, t in asg.items()]
        rows = precedes_matrix_rows(ts)
        for j, f in enumerate(ts):
            for i, e in enumerate(ts):
                expected = i != j and e.precedes(f)
                assert bool(rows[j] >> i & 1) == expected, (
                    asg.algorithm.name, i, j,
                )


def test_precedes_matrix_none_falls_back_to_pairwise():
    """A scheme without a fast path still validates via pairwise calls."""
    from repro.baselines.encoded import EncodedTimestamp

    graph = generators.star(4)
    ex = random_execution(graph, random.Random(1), steps=30,
                          deliver_all=True)
    asg = replay(ex, [EncodedClock(4)])[0]
    ts = [t for _eid, t in asg.items()]
    assert EncodedTimestamp.precedes_matrix(ts) is None
    report = asg.validate()
    assert report == asg.validate_pairwise()
    assert report.characterizes


def test_validate_sampled_counts_each_pair_once():
    """The sampled counters must follow the report's documented semantics:
    one classification per sampled pair, both directions checked."""
    graph = generators.star(6)
    ex = random_execution(graph, random.Random(21), steps=100,
                          deliver_all=True)
    oracle = HappenedBeforeOracle(ex)
    lamport, vector = replay(ex, [LamportClock(6), VectorClock(6)])

    n_pairs = 500
    report = lamport.validate_sampled(oracle, n_pairs=n_pairs, seed=4)
    assert report.n_ordered_pairs + report.n_concurrent_pairs == n_pairs
    # Lamport totally orders, so every concurrent sampled pair yields
    # exactly one false positive (one of the two checked directions).
    assert len(report.false_positives) == report.n_concurrent_pairs
    assert report.false_positive_rate == pytest.approx(
        len(report.false_positives) / (2 * report.n_concurrent_pairs)
    )

    exact = vector.validate_sampled(oracle, n_pairs=n_pairs, seed=4)
    assert exact.n_ordered_pairs + exact.n_concurrent_pairs == n_pairs
    assert exact.characterizes


#: (clock, seed) -> (n_events, ordered, concurrent, false negatives,
#: false positives, sha256 prefix of the two mismatch tuples' repr) of
#: ``validate_sampled(n_pairs=300)``, recorded at ``cddb61f``
SAMPLED_AT_PARENT = {
    ("lamport", 4): (163, 171, 129, 0, 129, "5c8baff8aee9c515"),
    ("lamport", 9): (163, 172, 128, 0, 128, "a2fdb8c2983c5177"),
    ("vector", 4): (163, 171, 129, 0, 0, "56546d2909af6040"),
    ("vector", 9): (163, 172, 128, 0, 0, "56546d2909af6040"),
}


@pytest.mark.parametrize("clock,seed", sorted(SAMPLED_AT_PARENT))
def test_validate_sampled_report_is_the_same_from_every_oracle(clock, seed):
    """No oracle, a batch oracle and a streaming one give one report, and
    it is the one the matrix-building implementation gave (same pair
    draws, same classification, same mismatch order)."""
    graph = generators.double_star(2, 3)
    ex = random_execution(graph, random.Random(33), steps=150,
                          deliver_all=True)
    n = graph.n_vertices
    asg = dict(zip(
        ("lamport", "vector"), replay(ex, [LamportClock(n), VectorClock(n)])
    ))[clock]
    reports = [
        asg.validate_sampled(oracle, n_pairs=300, seed=seed)
        for oracle in (
            None, HappenedBeforeOracle(ex), incremental_from_execution(ex)
        )
    ]
    assert reports[0] == reports[1] == reports[2]
    r = reports[0]
    mismatches = repr((r.false_negatives, r.false_positives)).encode()
    assert (
        r.n_events, r.n_ordered_pairs, r.n_concurrent_pairs,
        len(r.false_negatives), len(r.false_positives),
        hashlib.sha256(mismatches).hexdigest()[:16],
    ) == SAMPLED_AT_PARENT[clock, seed]


def test_validate_sampled_builds_no_matrix():
    """A sample is point queries: at 20k events the causal-past matrix
    alone is 50 MB, the clock table under 1 MB.  Neither the default
    oracle nor a streaming one handed in may be turned into a matrix."""
    import tracemalloc

    graph = generators.star(8)
    ex = random_execution(graph, random.Random(1), steps=20_000,
                          deliver_all=True)
    assert ex.n_events >= 20_000
    asg = replay(ex, [VectorClock(8)])[0]
    for oracle in (None, incremental_from_execution(ex)):
        tracemalloc.start()
        try:
            report = asg.validate_sampled(oracle, n_pairs=500, seed=3)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.characterizes
        assert peak < 30e6, f"{peak / 1e6:.1f} MB traced"


# ----------------------------------------------------------------------
# the mismatch decoders, at sizes whose rows span words
# ----------------------------------------------------------------------
KERNELS = ["pure"] + (["numpy"] if numpy_available() else [])
COUNTERS = ("validate.cells", "validate.mismatch_decodes", "validate.runs")


def _counted_validate(asg, oracle, events=None):
    registry = MetricsRegistry()
    with use_registry(registry):
        report = asg.validate(oracle, events=events)
    return report, [registry.counter_value(name) for name in COUNTERS]


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(3, 7),
    seed=st.integers(0, 100_000),
    steps=st.integers(70, 170),
)
def test_decoders_equal_pairwise_on_multi_word_rows(n, seed, steps):
    """70-200 events: two to four words per row, ``m % 64 != 0``.  A FIFO
    star is the one shape all nine registry schemes run on."""
    graph = generators.star(n)
    ex = random_execution(
        graph, random.Random(seed), steps=steps, fifo=True, deliver_all=True
    )
    assume(64 < ex.n_events <= 200 and ex.n_events % 64)
    ids = [ev.eid for ev in ex.all_events()]
    half = list(ids)
    random.Random(seed + 1).shuffle(half)
    half = half[: len(ids) // 2]
    oracles = [HappenedBeforeOracle(ex, backend=k) for k in KERNELS]
    for spec in all_schemes():
        asg = replay(ex, [spec.build(graph, 0)])[0]
        for events in (None, half):
            want = asg.validate_pairwise(oracles[0], events=events)
            runs = [_counted_validate(asg, o, events) for o in oracles]
            for kernel, (report, counters) in zip(KERNELS, runs):
                assert report == want, (spec.name, kernel, events is None)
                assert counters == runs[0][1], (spec.name, kernel)


def _fixed_execution():
    graph = generators.star(32)
    return graph, random_execution(
        graph, random.Random(2), steps=1_024, fifo=True, deliver_all=True
    )


def _report_digest(report) -> str:
    def pairs(ps):
        return [[[e.proc, e.index], [f.proc, f.index]] for e, f in ps]

    blob = json.dumps([
        report.algorithm, report.n_events, report.n_ordered_pairs,
        report.n_concurrent_pairs, pairs(report.false_negatives),
        pairs(report.false_positives),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: scheme -> (events, false positives, report digest) of ``validate`` on
#: :func:`_fixed_execution`, recorded at ``389689e`` by running this file
#: as a script there
REPORTS_AT_PARENT = {
    "lamport": (1035, 108712, "66bdce9f7041092d"),
    "plausible": (1035, 46653, "a885ffdbba4c698b"),
    "hlc": (1035, 108712, "feb1885f76b9adad"),
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scheme", sorted(REPORTS_AT_PARENT))
def test_inexact_reports_are_the_parents(scheme, kernel):
    graph, ex = _fixed_execution()
    spec = {s.name: s for s in all_schemes()}[scheme]
    report = replay(ex, [spec.build(graph, 0)])[0].validate(
        HappenedBeforeOracle(ex, backend=kernel)
    )
    assert (
        report.n_events, len(report.false_positives), _report_digest(report)
    ) == REPORTS_AT_PARENT[scheme]


def test_oracle_of_another_execution_is_refused():
    """It used to die in the row gather (``IndexError``) or, with equal
    totals, return a confident report about the wrong execution."""
    graph = generators.star(5)
    ex1 = random_execution(graph, random.Random(1), steps=60, deliver_all=True)
    ex2 = random_execution(graph, random.Random(2), steps=40, deliver_all=True)
    asg = replay(ex1, [VectorClock(5)])[0]
    for kernel in KERNELS:
        other = HappenedBeforeOracle(ex2, backend=kernel)
        for check in (asg.validate, asg.validate_pairwise):
            with pytest.raises(ValueError) as err:
                check(other)
            assert str(ex1.event_counts()) in str(err.value)
            assert str(ex2.event_counts()) in str(err.value)
    # the same execution through another object is not "another execution"
    twin = random_execution(graph, random.Random(1), steps=60, deliver_all=True)
    assert asg.validate(HappenedBeforeOracle(twin)).characterizes


@pytest.mark.parametrize(
    "oracle_of", [HappenedBeforeOracle, incremental_from_execution],
    ids=["batch", "streaming"],
)
def test_validate_sampled_refuses_an_oracle_of_another_execution(oracle_of):
    """The sampled path used to answer: a correct vector clock over a
    60-step run, sampled against a 200-step run's oracle, came back with
    dozens of false negatives and false positives."""
    graph = generators.star(6)
    ex1 = random_execution(graph, random.Random(1), steps=60, deliver_all=True)
    ex2 = random_execution(graph, random.Random(2), steps=200, deliver_all=True)
    asg = replay(ex1, [VectorClock(6)])[0]
    with pytest.raises(ValueError) as err:
        asg.validate_sampled(oracle_of(ex2), n_pairs=100, seed=0)
    assert str(ex1.event_counts()) in str(err.value)
    assert str(ex2.event_counts()) in str(err.value)
    twin = random_execution(graph, random.Random(1), steps=60, deliver_all=True)
    assert asg.validate_sampled(oracle_of(twin), n_pairs=100).characterizes


if __name__ == "__main__":
    graph, ex = _fixed_execution()
    for spec in all_schemes():
        if spec.name in ("lamport", "plausible", "hlc"):
            r = replay(ex, [spec.build(graph, 0)])[0].validate(
                HappenedBeforeOracle(ex)
            )
            print(
                f'    "{spec.name}": ({r.n_events}, '
                f'{len(r.false_positives)}, "{_report_digest(r)}"),'
            )
