"""Byte-identity of the numpy kernel backend against the pure reference.

Every answer the array backend can produce — past masks, relation counts,
vector clocks, closures, whole-assignment validation reports — must equal
the pure-python oracle's answer exactly, on arbitrary executions.  These
are the property-based teeth behind the conformance fuzzer's
``backend-differential`` invariant.

Both kernels decode their bits from the same clock table, so the rows are
held against :func:`tests.helpers.reference_past_masks`, a delivery-order
OR recurrence that shares no code with either decoder.
"""

import os
import random
import subprocess
import sys
from contextlib import nullcontext
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import INFINITY, LamportClock, VectorClock, replay_one
from repro.clocks.base import standard_vector_words
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.backend import (
    NUMPY_MIN_EVENTS,
    numpy_available,
    resolve_backend,
    use_backend,
)
from repro.core.cuts import cut_from_events, events_in_cut
from repro.core.incremental import IncrementalHBOracle
from repro.core.random_executions import execution_from_ops, random_execution, random_ops
from repro.faults.models import GilbertElliottLoss
from repro.topology import generators
from tests.helpers import reference_past_masks

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires numpy >= 2.0"
)

#: every kernel that can run here
KERNELS = ["pure"] + (["numpy"] if numpy_available() else [])


def _random_ex(seed: int, n: int = 5, steps: int = 60):
    rng = random.Random(seed)
    graph = generators.erdos_renyi(n, 0.6, rng)
    return random_execution(graph, rng, steps=steps)


def assert_bits_match_reference(oracle, ref):
    """*oracle*'s rows, matrix and pair counts against the reference rows."""
    assert oracle.past_masks() == ref
    mat = oracle.past_matrix()
    if oracle.backend == "numpy":
        from repro.core.npkernel import rows_to_matrix

        want = rows_to_matrix(ref)
        assert mat.shape == want.shape and (mat == want).all()
    else:
        assert mat is None
    m = len(ref)
    ordered = sum(row.bit_count() for row in ref)
    assert oracle.relation_counts() == (ordered, m * (m - 1) // 2 - ordered)


def assert_every_kernel_matches_reference(ex):
    ref = reference_past_masks(ex)
    for backend in KERNELS:
        assert_bits_match_reference(
            HappenedBeforeOracle(ex, backend=backend), ref
        )


@needs_numpy
class TestOracleParity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_past_masks_and_counts_identical(self, seed):
        ex = _random_ex(seed)
        ref = reference_past_masks(ex)
        pure = HappenedBeforeOracle(ex, backend="pure")
        fast = HappenedBeforeOracle(ex, backend="numpy")
        assert fast.backend == "numpy" and pure.backend == "pure"
        assert_bits_match_reference(pure, ref)
        assert_bits_match_reference(fast, ref)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_vector_clocks_identical(self, seed):
        ex = _random_ex(seed)
        pure = HappenedBeforeOracle(ex, backend="pure")
        fast = HappenedBeforeOracle(ex, backend="numpy")
        for ev in ex.all_events():
            assert fast.vector_clock(ev.eid) == pure.vector_clock(ev.eid)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_downward_closure_identical(self, seed, k):
        ex = _random_ex(seed)
        ids = [ev.eid for ev in ex.all_events()]
        if not ids:
            return
        rng = random.Random(seed + 1)
        seeds = rng.sample(ids, min(k, len(ids)))
        pure = HappenedBeforeOracle(ex, backend="pure")
        fast = HappenedBeforeOracle(ex, backend="numpy")

        def closure(oracle, events):
            return events_in_cut(oracle, cut_from_events(oracle, events))

        assert closure(fast, seeds) == closure(pure, seeds)
        assert closure(fast, []) == set()
        for f in seeds:
            assert fast.causal_past(f) == pure.causal_past(f)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pairwise_queries_identical(self, seed):
        ex = _random_ex(seed, steps=40)
        ids = [ev.eid for ev in ex.all_events()]
        pure = HappenedBeforeOracle(ex, backend="pure")
        fast = HappenedBeforeOracle(ex, backend="numpy")
        rng = random.Random(seed + 2)
        for _ in range(30):
            e, f = rng.choice(ids), rng.choice(ids)
            assert fast.happened_before(e, f) == pure.happened_before(e, f)
            assert fast.happened_before(f, e) == pure.happened_before(f, e)
        assert fast.causal_past(ids[-1]) == pure.causal_past(ids[-1])


@needs_numpy
class TestValidateParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_vector_clock_reports_identical(self, seed):
        ex = _random_ex(seed)
        n = ex.n_processes
        asg = replay_one(ex, VectorClock(n))
        fast = asg.validate(HappenedBeforeOracle(ex, backend="numpy"))
        pure = asg.validate(HappenedBeforeOracle(ex, backend="pure"))
        assert fast == pure
        assert fast.characterizes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lamport_mismatch_decodes_identical(self, seed):
        """Lamport clocks produce false positives; the numpy matrix scan
        must decode exactly the same mismatching pairs as the pure loop."""
        ex = _random_ex(seed)
        n = ex.n_processes
        asg = replay_one(ex, LamportClock(n))
        fast = asg.validate(HappenedBeforeOracle(ex, backend="numpy"))
        pure = asg.validate(HappenedBeforeOracle(ex, backend="pure"))
        assert fast == pure


class TestEdgeShapes:
    """Both decoders against the reference where word arithmetic can slip."""

    def test_empty_execution(self):
        ex = ExecutionBuilder(3).freeze()
        assert_every_kernel_matches_reference(ex)
        assert HappenedBeforeOracle(ex).past_masks() == ()

    def test_single_process(self):
        b = ExecutionBuilder(1)
        for _ in range(70):  # past a uint64 word boundary
            b.local(0)
        ex = b.freeze()
        assert_every_kernel_matches_reference(ex)
        pure = HappenedBeforeOracle(ex, backend="pure")
        assert pure.past_masks()[-1] == (1 << 69) - 1

    @staticmethod
    def _exchange(n, steps, seed, idle=()):
        """Random locals and delivered messages among the non-*idle*
        processes of an *n*-process execution: the open builder and its
        event count."""
        rng = random.Random(seed)
        live = [p for p in range(n) if p not in idle]
        b = ExecutionBuilder(n)
        m = 0
        for _ in range(steps):
            src, dst = rng.sample(live, 2)
            if rng.random() < 0.4:
                b.local(src)
                m += 1
            else:
                b.receive(dst, b.send(src, dst))
                m += 2
        return b, m

    def test_a_process_with_no_events(self):
        ex = self._exchange(5, 90, seed=1, idle=(0, 3))[0].freeze()
        assert ex.event_counts()[0] == ex.event_counts()[3] == 0
        assert_every_kernel_matches_reference(ex)

    def test_blocks_straddle_word_boundaries(self):
        ex = self._exchange(4, 160, seed=2)[0].freeze()
        bases = list(accumulate(ex.event_counts(), initial=0))
        # some block starts mid-word and some block spans several words
        assert any(b % 64 for b in bases[1:-1])
        assert any(hi - lo > 64 for lo, hi in zip(bases, bases[1:]))
        assert_every_kernel_matches_reference(ex)

    def test_m_is_a_multiple_of_64(self):
        b, m = self._exchange(3, 50, seed=3)
        for _ in range(128 - m):
            b.local(1)
        ex = b.freeze()
        assert ex.n_events == 128
        assert_every_kernel_matches_reference(ex)

    def test_undelivered_sends(self):
        lossy = GilbertElliottLoss(p_enter_burst=0.2, p_exit_burst=0.5)
        for seed in range(5):
            rng = random.Random(seed)
            graph = generators.erdos_renyi(5, 0.6, rng)
            ex = execution_from_ops(graph, random_ops(graph, rng, steps=120, fault=lossy))
            assert ex.undelivered_messages()
            assert_every_kernel_matches_reference(ex)


class TestFreezeParity:
    def test_streamed_freeze_matches_batch(self):
        # fixed executions on both sides of the size rule, frozen onto the
        # kernel it picks and under a pin of each kernel
        sizes = []
        for steps in (60, 600, 3_000):
            ex = _random_ex(steps, steps=steps)
            sizes.append(ex.n_events)
            ref = reference_past_masks(ex)
            inc = IncrementalHBOracle(ex.n_processes).ingest(ex)
            pure = HappenedBeforeOracle(ex, backend="pure")
            for backend in (None, "pure", "numpy"):
                if backend == "numpy" and not numpy_available():
                    continue
                with use_backend(backend) if backend else nullcontext():
                    frozen = inc.freeze(ex)
                assert frozen.backend == resolve_backend(ex.n_events, backend)
                assert_bits_match_reference(frozen, ref)
                assert frozen.event_order == pure.event_order
                for eid in pure.event_order:
                    assert frozen.vector_clock(eid) == pure.vector_clock(eid)
        assert sizes[0] < NUMPY_MIN_EVENTS <= sizes[1] < sizes[2]


class TestBackendSelection:
    def test_resolve_forced_overrides_auto(self):
        before = resolve_backend(1_000_000)
        with use_backend("pure"):
            assert resolve_backend(1_000_000) == "pure"
        assert resolve_backend(1_000_000) == before  # pin restored on exit

    def test_explicit_override_beats_forced(self):
        with use_backend("pure"):
            if numpy_available():
                assert resolve_backend(10, override="numpy") == "numpy"
            assert resolve_backend(10**6, override="pure") == "pure"

    def test_auto_threshold(self):
        expected = "numpy" if numpy_available() else "pure"
        assert resolve_backend(NUMPY_MIN_EVENTS) == expected
        assert resolve_backend(NUMPY_MIN_EVENTS - 1) == "pure"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(10, override="cuda")
        with pytest.raises(ValueError):
            with use_backend("cuda"):
                pass

    def test_a_small_oracle_does_not_import_numpy(self):
        """The size rule is tested before numpy is probed: a 10-event
        oracle resolves to ``pure`` and leaves numpy unimported (a fabric
        coordinator that replays a small case before it forks must not
        hand numpy to its workers).  Run in a fresh interpreter, since this
        one has long imported numpy."""
        code = (
            "import random, sys\n"
            "from repro.core import HappenedBeforeOracle\n"
            "from repro.core.random_executions import random_execution\n"
            "from repro.topology import generators\n"
            "ex = random_execution(generators.star(3), random.Random(0), steps=10)\n"
            "assert 0 < ex.n_events < 12, ex.n_events\n"
            "print(HappenedBeforeOracle(ex).backend, 'numpy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            check=True, capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.split() == ["pure", "False"]

    @needs_numpy
    def test_oracle_honours_forcing(self):
        ex = _random_ex(3)
        with use_backend("numpy"):
            assert HappenedBeforeOracle(ex).backend == "numpy"
        with use_backend("pure"):
            assert HappenedBeforeOracle(ex).backend == "pure"


class TestStandardVectorWords:
    @needs_numpy
    def test_infinity_falls_back_to_none(self):
        vecs = [(0.0, 1.0), (1.0, INFINITY)]
        assert standard_vector_words(vecs) is None

    @needs_numpy
    def test_fractional_falls_back_to_none(self):
        assert standard_vector_words([(0.5, 1.0), (1.0, 2.0)]) is None

    @needs_numpy
    def test_integral_floats_accepted(self):
        mat = standard_vector_words([(0.0, 1.0), (1.0, 2.0)])
        assert mat is not None
        # row 1 dominates row 0, not vice versa
        assert int(mat[1, 0]) & 1 == 1
        assert int(mat[0, 0]) == 0

    def test_returns_none_without_numpy(self, monkeypatch):
        import repro.clocks.base as base
        import repro.core.backend as backend_mod

        monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        assert base.standard_vector_words([(0, 1), (1, 2)]) is None
