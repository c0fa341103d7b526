"""The blocked numpy kernel for the standard vector comparison.

``npkernel.standard_vector_matrix`` builds one table of dominance rows per
coordinate, groups the tables so that a group holds at most ``m + n`` rows,
and ANDs each group into the output one block of rows at a time.  Here it
is held, bit for bit, to the pairwise definition (``vector_lt`` on every
ordered pair) on shapes around a word (63/64/65 events) and around a block
(the block height is shrunk so that the pairwise reference stays cheap),
on inputs that split the tables into several groups, and at the default
block height.  Its memory is held to the output plus one group of tables
plus one block, and the inputs it must hand back to the pure sweep still
give ``None``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.clocks import INFINITY, VectorClock, replay_one
from repro.clocks.base import standard_vector_rows, vector_lt
from repro.clocks.vector import VectorTimestamp
from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.random_executions import random_execution
from repro.topology import generators

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="requires numpy >= 2.0"
)

#: the block height the shape tests shrink the kernel to
BLOCK = 37
SIZES = [1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _npkernel():
    from repro.core import npkernel

    return npkernel


def _pairwise(vectors):
    """The reference matrix: bit ``i`` of row ``j`` iff
    ``vector_lt(vectors[i], vectors[j])``."""
    rows = [
        sum(1 << i for i, u in enumerate(vectors) if vector_lt(u, v))
        for v in vectors
    ]
    return _npkernel().rows_to_matrix(rows)


def _vectors(kind, m, n, seed):
    rng = random.Random(seed)
    if kind == "repeated":  # few values: many equal vectors
        return [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(m)]
    if kind == "signed-large":  # drawn from a pool, so some repeat
        pool = [-(10**15), -7, -1, 0, 3, 10**12, 10**15]
        return [tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)]
    if kind == "all-distinct":  # every coordinate a permutation
        cols = [rng.sample(range(-m, m), m) for _ in range(n)]
        return [tuple(col[i] for col in cols) for i in range(m)]
    assert kind == "integral-floats"
    return [tuple(float(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)]


def _shrink_block(monkeypatch, m):
    """Make the kernel's blocks :data:`BLOCK` rows high for *m* events."""
    words = (m + 63) >> 6
    monkeypatch.setattr(_npkernel(), "BLOCK_BYTES", BLOCK * 8 * words)


KINDS = ["repeated", "signed-large", "all-distinct", "integral-floats"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 33])
@pytest.mark.parametrize("m", SIZES)
def test_equals_the_pairwise_definition(monkeypatch, m, n, kind):
    vectors = _vectors(kind, m, n, seed=m * 100 + n)
    _shrink_block(monkeypatch, m)
    got = _npkernel().standard_vector_matrix(vectors)
    want = _pairwise(vectors)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_half_repeated_distinct_vectors_split_into_groups(monkeypatch):
    """An equal-vector table and all-distinct coordinates: each coordinate
    table holds ``m / 2`` rows, so the groups flush more than once."""
    m = 2 * BLOCK + 3
    half = _vectors("all-distinct", m // 2 + 1, 5, seed=9)
    vectors = (half + half)[:m]
    random.Random(4).shuffle(vectors)
    _shrink_block(monkeypatch, m)
    got = _npkernel().standard_vector_matrix(vectors)
    assert got.tobytes() == _pairwise(vectors).tobytes()


def _vector_clocks(m):
    graph = generators.star(33)
    execution = random_execution(
        graph, random.Random(1), steps=m, fifo=True, deliver_all=True
    )
    asg = replay_one(execution, VectorClock(graph.n_vertices))
    vectors = [asg[ev.eid].vector for ev in execution.all_events()]
    assert len(vectors) >= m
    return vectors[:m]


def test_default_block_height_against_the_pure_kernel():
    npkernel = _npkernel()
    m = 2051  # three blocks of the default height: 992, 992, 67 rows
    assert npkernel.BLOCK_BYTES // (8 * ((m + 63) >> 6)) == 992
    for vectors in (_vector_clocks(m), _vectors("all-distinct", m, 3, seed=2)):
        got = npkernel.standard_vector_matrix(vectors)
        want = npkernel.rows_to_matrix(standard_vector_rows(vectors))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "vectors",
    [
        [(0, 1), (INFINITY, 2)],  # the lower bounds' infinite posts
        [(0.5, 1.0), (1.0, 2.0)],  # fractional
        [(0, 1), (0.5, 2)],  # an int first, then a fractional float
        [(0, 1), (2**70, 2)],  # beyond int64
        [(0, 1), (None, 2)],
        [("a", "b"), ("c", "d")],
        [(1, 2), (3,)],  # ragged: numpy refuses the shape
        [(0.5, 1.0), (1.0,)],  # ragged, floats first
    ],
    ids=[
        "infinity", "fractional", "int-then-fraction", "huge-int", "none", "str",
        "ragged", "ragged-floats",
    ],
)
def test_inputs_left_to_the_pure_sweep_give_none(vectors):
    assert _npkernel().standard_vector_matrix(vectors) is None


class TrimmedTimestamp(VectorTimestamp):
    """A vector clock with its trailing zeros left off, so that vectors
    differ in length; compared as if padded with zeros."""

    __slots__ = ()

    def precedes(self, other):
        a, b = self.vector, other.vector
        n = max(len(a), len(b))
        return vector_lt(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))


class TrimmedVectorClock(VectorClock):
    def _step(self, p, k, received=()):
        vector = super()._step(p, k, received)
        trimmed = list(vector)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self._stamps[p][-1] = TrimmedTimestamp(tuple(trimmed))
        return vector


def test_ragged_vectors_validate_as_on_the_pure_kernel():
    """The kernel hands ragged vectors back (``None``), and ``validate()``
    on a numpy oracle falls back to the pairwise comparison: its report is
    the pure oracle's, field for field."""
    graph = generators.star(8)
    execution = random_execution(
        graph, random.Random(5), steps=120, fifo=True, deliver_all=True
    )
    asg = replay_one(execution, TrimmedVectorClock(graph.n_vertices))
    vectors = [asg[ev.eid].vector for ev in execution.all_events()]
    assert len(set(map(len, vectors))) > 1
    assert standard_vector_rows(vectors) is None
    assert _npkernel().standard_vector_matrix(vectors) is None
    numpy_report = asg.validate(HappenedBeforeOracle(execution, backend="numpy"))
    assert numpy_report == asg.validate(HappenedBeforeOracle(execution, backend="pure"))
    assert numpy_report.characterizes


def _peak_bytes(fn):
    fn()  # first-call allocations (ufunc loops, caches) out of the way
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["vector-clocks", "all-distinct"])
def test_memory_is_the_output_one_group_of_tables_and_one_block(kind):
    """At m = 4,096 the peak is the output, one group of tables (``m + n``
    rows), one block, the int64 input and the int32 row of each event in
    each table, plus 64 bytes per event for the per-coordinate sort."""
    npkernel = _npkernel()
    m, n = 4096, 33
    vectors = (
        _vector_clocks(m) if kind == "vector-clocks"
        else _vectors("all-distinct", m, n, seed=5)
    )
    assert len(vectors[0]) == n
    peak, result = _peak_bytes(lambda: npkernel.standard_vector_matrix(vectors))
    row = result[0].nbytes
    bound = (
        result.nbytes  # the output
        + (m + n) * row  # one group of tables
        + npkernel.BLOCK_BYTES  # one block's gather buffer
        + m * n * (8 + 4)  # the input and the rows of each table's events
        + 64 * m
    )
    assert peak <= bound, (peak, bound)
