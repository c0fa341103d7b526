"""The bitset causality kernel against the vector-clock characterization.

The oracle's packed-int causal-past rows must reproduce, bit for bit, the
textbook definition ``e -> f iff vc_e[e.proc] <= vc_f[e.proc]`` (Fidge,
Mattern) that the oracle's own full-length vector clocks encode.  Hypothesis
drives topology family, size, seed and workload length across the benchmark
topology suite.

Nothing under ``src/`` queries the rows — causal pasts and cuts answer from
the clock table, and the oracle's rows are decoded from that table too — so
the *independent* reference here is the test-local delivery-order OR
recurrence (:func:`tests.helpers.reference_past_masks`):
:func:`decoded_pasts` reads its bits, and ``causal_past``, every cut query
and the oracle's own ``past_masks()`` are checked against it on both
kernels.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.cuts import (
    cut_from_events,
    events_in_cut,
    is_consistent,
    max_consistent_cut_within,
)
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators
from tests.helpers import reference_past_masks

FAMILIES = [
    "star", "double_star", "cycle", "path", "tree", "bipartite", "random",
    "clique",
]


def build_graph(family: str, n: int, seed: int):
    rng = random.Random(seed)
    n = max(2, n)
    if family == "star":
        return generators.star(n)
    if family == "double_star":
        return generators.double_star(max(1, n // 2), max(1, n // 2))
    if family == "cycle":
        return generators.cycle(max(3, n))
    if family == "path":
        return generators.path(n)
    if family == "tree":
        return generators.random_tree(n, rng)
    if family == "bipartite":
        return generators.complete_bipartite(max(1, n // 3), n - n // 3)
    if family == "random":
        return generators.erdos_renyi(n, 0.3, rng)
    if family == "clique":
        return generators.clique(min(n, 6))
    raise AssertionError(family)


#: every kernel that can run here (looped over inside a test, so it keeps
#: the one id it has always had)
KERNELS = ["pure"] + (["numpy"] if numpy_available() else [])


def decoded_pasts(oracle):
    """``{f: {e : e -> f}}`` decoded from the reference rows alone."""
    order = oracle.event_order
    return {
        f: {order[i] for i in range(len(order)) if row >> i & 1}
        for f, row in zip(order, reference_past_masks(oracle.execution))
    }


def vc_happened_before(oracle, e, f):
    """The Fidge/Mattern characterization, straight from the definition."""
    if e == f:
        return False
    return oracle.vector_clock(e)[e.proc] <= oracle.vector_clock(f)[e.proc]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 8),
    seed=st.integers(0, 100_000),
    steps=st.integers(0, 60),
)
def test_bitset_oracle_matches_vector_clock_oracle(family, n, seed, steps):
    graph = build_graph(family, n, seed)
    ex = random_execution(graph, random.Random(seed ^ 0x5EED), steps=steps)
    oracle = HappenedBeforeOracle(ex)
    ids = [ev.eid for ev in ex.all_events()]

    n_ordered = 0
    for e in ids:
        for f in ids:
            if e == f:
                continue
            expected = vc_happened_before(oracle, e, f)
            assert oracle.happened_before(e, f) == expected, (e, f)
            n_ordered += expected

    for f in ids:
        expected_past = {
            e for e in ids if e != f and vc_happened_before(oracle, e, f)
        }
        assert oracle.causal_past(f) == expected_past

    m = len(ids)
    assert oracle.relation_counts() == (
        n_ordered,
        m * (m - 1) // 2 - n_ordered,
    )


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 7),
    seed=st.integers(0, 100_000),
)
def test_downward_closure_is_causally_closed(family, n, seed):
    """The downward closure of a seed set is ``cut_from_events`` as events."""
    graph = build_graph(family, n, seed)
    ex = random_execution(graph, random.Random(seed), steps=40)
    for backend in KERNELS:
        oracle = HappenedBeforeOracle(ex, backend=backend)
        past = decoded_pasts(oracle)
        ids = list(oracle.event_order)
        if not ids:
            return
        rng = random.Random(seed + 1)
        seeds = rng.sample(ids, min(3, len(ids)))
        closure = events_in_cut(oracle, cut_from_events(oracle, seeds))
        # closed, and minimal: every member is a seed or in a seed's past
        assert closure == set(seeds).union(*(past[s] for s in seeds))
        for f in closure:
            assert oracle.causal_past(f) <= closure


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 7),
    seed=st.integers(0, 100_000),
)
def test_cut_queries_match_decoded_rows(family, n, seed):
    graph = build_graph(family, n, seed)
    ex = random_execution(graph, random.Random(seed), steps=40)
    counts = ex.event_counts()
    for backend in KERNELS:
        oracle = HappenedBeforeOracle(ex, backend=backend)
        past = decoded_pasts(oracle)
        assert oracle.past_masks() == reference_past_masks(ex)
        for f, expected in past.items():
            assert oracle.causal_past(f) == expected
        rng = random.Random(seed + 2)
        for _ in range(10):
            cut = tuple(rng.randint(0, c) for c in counts)
            inside = {EventId(p, k) for p, c in enumerate(cut)
                      for k in range(1, c + 1)}
            assert events_in_cut(oracle, cut) == inside
            assert is_consistent(oracle, cut) == all(
                past[f] <= inside for f in inside
            )
            # the largest closed set avoiding `banned`: events whose whole
            # past (and themselves) are allowed
            banned = set(rng.sample(sorted(past), len(past) // 4))
            got = max_consistent_cut_within(oracle, lambda e: e not in banned)
            assert is_consistent(oracle, got)
            assert events_in_cut(oracle, got) == {
                f for f in past if not ((past[f] | {f}) & banned)
            }


def test_event_order_matches_all_events_and_masks_are_strict():
    graph = generators.star(5)
    ex = random_execution(graph, random.Random(3), steps=50,
                          deliver_all=True)
    oracle = HappenedBeforeOracle(ex)
    assert list(oracle.event_order) == [ev.eid for ev in ex.all_events()]
    rows = oracle.past_masks()
    assert rows == reference_past_masks(ex)
    for j, eid in enumerate(oracle.event_order):
        assert oracle.index_of(eid) == j
        # strictness: no self-bit in any row
        assert not rows[j] >> j & 1
