"""Tests for the streaming incremental happened-before oracle.

The load-bearing property is byte-identity: an
:class:`IncrementalHBOracle` fed event-by-event, then frozen, must be
indistinguishable from a :class:`HappenedBeforeOracle` built over the
completed execution — rows, event order, vector clocks, and every query.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    HappenedBeforeOracle,
    IncrementalHBOracle,
    as_batch_oracle,
    incremental_from_execution,
)
from repro.core.backend import numpy_available
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.obs.metrics import MetricsRegistry
from repro.topology import generators
from tests.helpers import reference_past_masks


def assert_byte_identical(inc, execution):
    """Frozen incremental oracle vs from-scratch batch oracle."""
    frozen = inc.freeze(execution)
    batch = HappenedBeforeOracle(execution)
    assert frozen.event_order == batch.event_order
    assert frozen.past_masks() == batch.past_masks()
    assert frozen.relation_counts() == batch.relation_counts()
    for ev in execution.all_events():
        assert frozen.vector_clock(ev.eid) == batch.vector_clock(ev.eid)
    return frozen, batch


class TestAppendBasics:
    def test_hand_built_execution(self, small_star_execution):
        ex = small_star_execution
        inc = incremental_from_execution(ex)
        batch = HappenedBeforeOracle(ex)
        ids = [ev.eid for ev in ex.all_events()]
        for e in ids:
            for f in ids:
                if e != f:
                    assert inc.happened_before(e, f) == \
                        batch.happened_before(e, f)
            assert inc.vector_clock(e) == batch.vector_clock(e)
        assert inc.relation_counts() == batch.relation_counts()
        assert inc.n_events == ex.n_events

    def test_answers_are_final_as_stream_grows(self, small_star_execution):
        # append-monotonicity: answers about already-appended events never
        # change as more events arrive
        ex = small_star_execution
        inc = IncrementalHBOracle(ex.n_processes)
        decided = {}
        seen = []
        for ev in ex.delivery_order():
            if ev.is_receive:
                inc.append_receive(ev.eid, ex.send_of(ev).eid)
            else:
                inc.append_event(ev)
            seen.append(ev.eid)
            for e in seen:
                for f in seen:
                    if e == f:
                        continue
                    ans = inc.happened_before(e, f)
                    if (e, f) in decided:
                        assert decided[e, f] == ans, (e, f)
                    decided[e, f] = ans
        batch = HappenedBeforeOracle(ex)
        for (e, f), ans in decided.items():
            assert batch.happened_before(e, f) == ans

    def test_event_count_and_contains(self, small_star_execution):
        ex = small_star_execution
        inc = incremental_from_execution(ex)
        for p in range(ex.n_processes):
            assert inc.event_count(p) == len(ex.events_at(p))
        assert EventId(0, 1) in inc
        assert EventId(0, 99) not in inc
        assert EventId(99, 1) not in inc

    def test_out_of_order_append_rejected(self):
        inc = IncrementalHBOracle(2)
        inc.append_local(EventId(0, 1))
        with pytest.raises(ValueError, match="out-of-order"):
            inc.append_local(EventId(0, 3))
        with pytest.raises(ValueError, match="out of range"):
            inc.append_local(EventId(5, 1))

    def test_receive_requires_appended_send(self):
        inc = IncrementalHBOracle(2)
        with pytest.raises(KeyError):
            inc.append_receive(EventId(1, 1), EventId(0, 1))

    def test_append_event_dispatch_needs_send(self, small_star_execution):
        ex = small_star_execution
        inc = IncrementalHBOracle(ex.n_processes)
        recv = next(ev for ev in ex.delivery_order() if ev.is_receive)
        with pytest.raises(ValueError, match="needs its send"):
            inc.append_event(recv)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncrementalHBOracle(0)
        with pytest.raises(TypeError):  # slots are arrival ranks: no chunks
            IncrementalHBOracle(2, chunk=4)
        with pytest.raises(TypeError):  # no query is memoized: no LRU to size
            IncrementalHBOracle(2, cache_size=4)


class TestMetrics:
    def test_registers_exactly_the_append_counters(self, small_star_execution):
        ex = small_star_execution
        reg = MetricsRegistry()
        inc = incremental_from_execution(ex, registry=reg)
        ids = [ev.eid for ev in ex.all_events()]
        for f in ids:  # queries count nothing
            inc.causal_past(f)
            inc.happened_before(ids[0], f)
        assert reg.as_dict()["counters"] == {
            "oracle.appends": ex.n_events,
            "oracle.append_words": ex.n_events * ex.n_processes,
        }


class TestFreeze:
    def test_freeze_byte_identity(self):
        g = generators.double_star(2, 3)
        ex = random_execution(g, random.Random(5), steps=80,
                              deliver_all=True)
        inc = incremental_from_execution(ex)
        assert_byte_identical(inc, ex)

    def test_freeze_rejects_process_mismatch(self, small_star_execution):
        inc = IncrementalHBOracle(3)
        with pytest.raises(ValueError, match="processes"):
            inc.freeze(small_star_execution)

    def test_freeze_rejects_partial_stream(self, small_star_execution):
        ex = small_star_execution
        inc = IncrementalHBOracle(ex.n_processes)
        order = ex.delivery_order()
        for ev in order[: len(order) // 2]:
            if ev.is_receive:
                inc.append_receive(ev.eid, ex.send_of(ev).eid)
            else:
                inc.append_event(ev)
        with pytest.raises(ValueError, match="oracle saw"):
            inc.freeze(ex)

    def test_as_batch_oracle_passthrough_and_freeze(
        self, small_star_execution, small_oracle
    ):
        ex = small_star_execution
        assert as_batch_oracle(small_oracle, ex) is small_oracle
        inc = incremental_from_execution(ex)
        frozen = as_batch_oracle(inc, ex)
        assert isinstance(frozen, HappenedBeforeOracle)
        assert frozen.past_masks() == small_oracle.past_masks()


class TestPropertyEquivalence:
    @given(seed=st.integers(0, 10_000), steps=st.integers(2, 80))
    def test_streamed_equals_batch(self, seed, steps):
        # stream a random execution event-by-event; rows, relation counts,
        # and sampled precedes answers must match the batch oracle exactly
        g = generators.star(5)
        ex = random_execution(g, random.Random(seed), steps=steps)
        inc = IncrementalHBOracle(5)
        seen = []
        rng = random.Random(seed + 1)
        batch = HappenedBeforeOracle(ex)
        for ev in ex.delivery_order():
            if ev.is_receive:
                inc.append_receive(ev.eid, ex.send_of(ev).eid)
            else:
                inc.append_event(ev)
            seen.append(ev.eid)
            # sampled mid-stream spot checks against the *final* batch
            # oracle — valid because answers are append-monotone
            for _ in range(3):
                e = seen[rng.randrange(len(seen))]
                f = seen[rng.randrange(len(seen))]
                if e != f:
                    assert inc.happened_before(e, f) == \
                        batch.happened_before(e, f)
        assert inc.relation_counts() == batch.relation_counts()
        assert_byte_identical(inc, ex)

    @given(seed=st.integers(0, 10_000))
    def test_ingest_order_independence(self, seed):
        # delivery_order is one causally consistent order; rows must not
        # depend on which one was streamed.  Build a second order by a
        # greedy topological merge biased differently.
        g = generators.star(4)
        ex = random_execution(g, random.Random(seed), steps=40,
                              deliver_all=True)
        inc_a = incremental_from_execution(ex)
        order = ex.delivery_order()
        # alternative causally consistent order: process receives as late
        # as possible (stable sort by (is_receive, original position))
        ready = sorted(
            range(len(order)),
            key=lambda i: (order[i].is_receive, i),
        )
        inc_b = IncrementalHBOracle(4)
        appended = set()
        pending = [order[i] for i in ready]
        while pending:
            progressed = False
            rest = []
            for ev in pending:
                prev_ok = (ev.eid.index == 1
                           or EventId(ev.eid.proc, ev.eid.index - 1)
                           in appended)
                send_ok = (not ev.is_receive
                           or ex.send_of(ev).eid in appended)
                if prev_ok and send_ok:
                    if ev.is_receive:
                        inc_b.append_receive(ev.eid, ex.send_of(ev).eid)
                    else:
                        inc_b.append_event(ev)
                    appended.add(ev.eid)
                    progressed = True
                else:
                    rest.append(ev)
            assert progressed, "no causally consistent order found"
            pending = rest
        fa = inc_a.freeze(ex)
        fb = inc_b.freeze(ex)
        assert fa.past_masks() == fb.past_masks()
        for ev in ex.all_events():
            assert fa.vector_clock(ev.eid) == fb.vector_clock(ev.eid)


class TestSimulationIntegration:
    def _clocks(self, n):
        from repro.clocks import VectorClock

        return {"vector": VectorClock(n)}

    def test_online_oracle_matches_posthoc(self):
        from repro.sim import Simulation, UniformWorkload

        n = 6
        g = generators.star(n)
        sim = Simulation(g, seed=4, clocks=self._clocks(n),
                         online_oracle=True)
        res = sim.run(UniformWorkload(events_per_process=20, p_local=0.3))
        assert res.online_oracle is not None
        frozen = res.hb_oracle()
        batch = HappenedBeforeOracle(res.execution)
        assert frozen.past_masks() == batch.past_masks()
        assert frozen.event_order == batch.event_order

    def test_online_oracle_under_crash_faults(self):
        from repro.faults.models import CrashSchedule
        from repro.sim import Simulation, UniformWorkload

        n = 6
        g = generators.star(n)
        sim = Simulation(
            g,
            seed=11,
            clocks=self._clocks(n),
            fault_model=CrashSchedule({2: [(3.0, 9.0)], 4: [(5.0, 6.0)]}),
            online_oracle=True,
        )
        res = sim.run(UniformWorkload(events_per_process=25, p_local=0.2))
        frozen = res.hb_oracle()
        batch = HappenedBeforeOracle(res.execution)
        assert frozen.past_masks() == batch.past_masks()
        assert frozen.relation_counts() == batch.relation_counts()

    def test_online_oracle_under_loss_faults(self):
        from repro.faults.models import GilbertElliottLoss
        from repro.sim import Simulation, UniformWorkload

        n = 5
        g = generators.star(n)
        sim = Simulation(
            g,
            seed=13,
            clocks=self._clocks(n),
            fault_model=GilbertElliottLoss(scope="control"),
            online_oracle=True,
        )
        res = sim.run(UniformWorkload(events_per_process=15, p_local=0.2))
        frozen = res.hb_oracle()
        batch = HappenedBeforeOracle(res.execution)
        assert frozen.past_masks() == batch.past_masks()

    def test_midrun_hook_queries_match_posthoc(self):
        from repro.sim import Simulation, UniformWorkload

        class Probing(UniformWorkload):
            """Queries the live oracle at every delivery."""

            def setup(self, sim):
                self.answers = []
                self.delivered = []
                super().setup(sim)

            def on_deliver(self, sim, msg, recv):
                oracle = sim.oracle
                for earlier in self.delivered[-3:]:
                    self.answers.append((
                        earlier, recv.eid,
                        oracle.happened_before(earlier, recv.eid),
                        oracle.vector_clock(recv.eid),
                        oracle.causal_past(recv.eid),
                    ))
                self.delivered.append(recv.eid)

        n = 5
        sim = Simulation(generators.star(n), seed=7, clocks=self._clocks(n),
                         online_oracle=True)
        workload = Probing(events_per_process=20, p_local=0.3)
        res = sim.run(workload)
        batch = HappenedBeforeOracle(res.execution)
        assert len(workload.answers) > 20
        for e, f, hb, vc, past in workload.answers:
            assert hb == batch.happened_before(e, f)
            assert vc == batch.vector_clock(f)
            assert past == batch.causal_past(f)
        assert res.hb_oracle().past_masks() == batch.past_masks()

    def test_off_by_default(self):
        from repro.sim import Simulation, UniformWorkload

        g = generators.star(4)
        sim = Simulation(g, seed=1, clocks=self._clocks(4))
        res = sim.run(UniformWorkload(events_per_process=5, p_local=0.3))
        assert res.online_oracle is None
        # hb_oracle still works: falls back to the batch construction
        assert res.hb_oracle().event_order


def _stream(inc, ex, events):
    for ev in events:
        if ev.is_receive:
            inc.append_receive(ev.eid, ex.send_of(ev).eid)
        else:
            inc.append_event(ev)


class TestClockRowAgainstBitRows:
    """The clock row against the bitset recurrence it replaced as ground truth.

    Every reference below is read off
    :func:`tests.helpers.reference_past_masks` — bits, never a clock table —
    so the two sides share no code.  Answers about appended events are
    final, so the mid-stream checks use the completed execution's rows.
    """

    def _check(self, inc, ex, seen):
        masks = reference_past_masks(ex)
        at = {ev.eid: i for i, ev in enumerate(ex.all_events())}
        pos = {eid: at[eid] for eid in seen}
        hb = lambda e, f: bool(masks[pos[f]] >> pos[e] & 1)  # noqa: E731
        n = inc.n_processes
        for f in seen:
            past = {e for e in seen if hb(e, f)}
            assert masks[pos[f]].bit_count() == len(past)  # past ⊆ seen
            assert inc.causal_past(f) == past
            assert inc.vector_clock(f) == tuple(
                sum(1 for e in past if e.proc == p) + (p == f.proc)
                for p in range(n)
            )
            assert inc.happened_before(f, f) is False
            for e in seen:
                assert inc.happened_before(e, f) == hb(e, f)
        ordered = sum(masks[pos[f]].bit_count() for f in seen)
        m = len(seen)
        assert inc.relation_counts() == (ordered, m * (m - 1) // 2 - ordered)

    @given(seed=st.integers(0, 10_000), steps=st.integers(2, 80))
    def test_every_query_mid_stream_and_at_the_end(self, seed, steps):
        ex = random_execution(generators.star(5), random.Random(seed),
                              steps=steps)
        order = ex.delivery_order()
        inc = IncrementalHBOracle(5)
        half = len(order) // 2
        _stream(inc, ex, order[:half])
        if half:
            self._check(inc, ex, [ev.eid for ev in order[:half]])
        _stream(inc, ex, order[half:])
        self._check(inc, ex, [ev.eid for ev in order])

    def test_unknown_and_out_of_order_ids_still_raise(
        self, small_star_execution
    ):
        ex = small_star_execution
        inc = incremental_from_execution(ex)
        known, ghost = EventId(0, 1), EventId(0, 99)
        for query in (
            lambda: inc.happened_before(known, ghost),
            lambda: inc.happened_before(ghost, known),
            lambda: inc.happened_before(EventId(9, 1), known),
            lambda: inc.vector_clock(ghost),
            lambda: inc.causal_past(ghost),
        ):
            with pytest.raises(KeyError):
                query()
        frozen = inc.freeze(ex)
        for query in (
            lambda: frozen.happened_before(known, ghost),
            lambda: frozen.happened_before(EventId(9, 1), known),
            lambda: frozen.vector_clock(ghost),
            lambda: frozen.index_of(ghost),
        ):
            with pytest.raises(KeyError):
                query()
        with pytest.raises(ValueError, match="out-of-order"):
            inc.append_local(EventId(0, 1))
        with pytest.raises(ValueError, match="out-of-order"):
            inc.append_receive(EventId(3, 9), known)


class TestFreezeBuildsNothing:
    """Neither constructor decodes bits; each decoder runs once, on the
    first ask for its representation."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Record every decode: ``masks`` (packed ints, any backend) and
        ``matrix`` (numpy)."""
        from repro.core import happened_before

        calls = []
        masks = happened_before.past_masks_from_clocks
        monkeypatch.setattr(
            happened_before, "past_masks_from_clocks",
            lambda *a: (calls.append("masks"), masks(*a))[1],
        )
        if numpy_available():
            from repro.core import npkernel

            matrix = npkernel.past_matrix_from_clocks
            monkeypatch.setattr(
                npkernel, "past_matrix_from_clocks",
                lambda *a: (calls.append("matrix"), matrix(*a))[1],
            )
        return calls

    @pytest.mark.parametrize("hide_numpy", [False, True])
    def test_point_queries_and_sampled_validation_build_no_rows(
        self, builds, monkeypatch, hide_numpy
    ):
        from repro.clocks import VectorClock, replay_one
        import repro.core.backend as backend_mod

        if hide_numpy:
            monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        g = generators.star(6)
        ex = random_execution(g, random.Random(8), steps=700,
                              deliver_all=True)
        assert ex.n_events >= backend_mod.NUMPY_MIN_EVENTS
        asg = replay_one(ex, VectorClock(6))
        inc = incremental_from_execution(ex)
        frozen = inc.freeze(ex)
        batch = HappenedBeforeOracle(ex)
        kernel = "pure" if hide_numpy or not numpy_available() else "numpy"
        assert frozen.backend == batch.backend == kernel
        ids = frozen.event_order
        rng = random.Random(0)
        for _ in range(1_000):
            e, f = rng.sample(ids, 2)
            assert frozen.happened_before(e, f) == inc.happened_before(e, f)
            assert frozen.happened_before(f, e) == inc.happened_before(f, e)
            assert batch.happened_before(e, f) == inc.happened_before(e, f)
        assert frozen.vector_clock(ids[-1]) == inc.vector_clock(ids[-1])
        assert frozen.relation_counts() == inc.relation_counts()
        assert batch.relation_counts() == inc.relation_counts()
        for oracle in (frozen, batch, inc, None):
            assert asg.validate_sampled(oracle, n_pairs=200).characterizes
        assert builds == []
        self._ask_every_table_query(frozen, rng)
        self._ask_every_table_query(batch, rng)
        assert builds == []
        first = frozen.past_masks()
        assert builds == ["masks"]
        assert frozen.past_masks() is first
        assert builds == ["masks"]
        assert first == reference_past_masks(ex)
        matrix = frozen.past_matrix()
        if kernel == "numpy":
            assert frozen.past_matrix() is matrix
            assert builds == ["masks", "matrix"]
        else:
            assert matrix is None and builds == ["masks"]

    @staticmethod
    def _ask_every_table_query(frozen, rng):
        """``causal_past``, every ``cuts.py`` function and the Section-6
        entry points built on them: all answered from the clock table."""
        from repro.applications.global_predicate import possibly
        from repro.applications.recovery import (
            periodic_checkpoints,
            recovery_line,
        )
        from repro.core import cuts

        ex = frozen.execution
        ids = frozen.event_order
        seeds = rng.sample(ids, 3)
        banned = set(rng.sample(ids, 20))
        for f in seeds:
            assert len(frozen.causal_past(f)) == \
                sum(frozen.vector_clock(f)) - 1
        full = cuts.full_cut(frozen)
        assert full == tuple(ex.event_counts())
        closed = cuts.cut_from_events(frozen, seeds)
        assert cuts.is_consistent(frozen, closed)
        assert set(seeds) <= cuts.events_in_cut(frozen, closed)
        assert len(cuts.frontier(frozen, closed)) == sum(map(bool, closed))
        within = cuts.max_consistent_cut_within(
            frozen, lambda e: e not in banned
        )
        assert cuts.is_consistent(frozen, within) and within != full
        line = recovery_line(
            frozen, periodic_checkpoints(ex, 50),
            allowed=lambda e: e not in banned,
        )
        assert cuts.is_consistent(frozen, line)
        assert all(k <= w for k, w in zip(line, within))
        # a predicate met at the empty cut: the walk is one step, the
        # consistency check of *within* before it is the point
        witness = possibly(frozen, lambda c: True, within=within)
        assert witness == cuts.empty_cut(ex.n_processes)

    @pytest.mark.parametrize("backend", ["pure", "numpy"])
    def test_each_bit_consumer_triggers_the_one_build(self, builds, backend):
        from repro.clocks import VectorClock, replay_one

        if backend == "numpy" and not numpy_available():
            pytest.skip("numpy backend unavailable")
        ex = random_execution(generators.star(4), random.Random(2), steps=40,
                              deliver_all=True)
        asg = replay_one(ex, VectorClock(4))
        # validation reads the matrix where there is one, the rows elsewhere
        asks = [
            (lambda o: o.past_masks(), "masks"),
            (lambda o: asg.validate(o),
             "matrix" if backend == "numpy" else "masks"),
        ]
        if backend == "numpy":  # the pure kernel has no matrix to hand out
            asks.append((lambda o: o.past_matrix(), "matrix"))
        for ask, decoder in asks:
            for build in (
                lambda: HappenedBeforeOracle(ex, backend=backend),
                lambda: _frozen_on(ex, backend),
            ):
                del builds[:]
                oracle = build()
                assert builds == []
                ask(oracle)
                ask(oracle)
                assert builds == [decoder]
        del builds[:]
        pure = _frozen_on(ex, "pure")
        assert pure.past_matrix() is None and builds == []


def _frozen_on(ex, backend):
    """*ex* streamed and frozen under a pin of *backend*."""
    from repro.core.backend import use_backend

    inc = incremental_from_execution(ex)
    with use_backend(backend):
        return inc.freeze(ex)


class TestLinearMemory:
    def test_retained_bytes_are_linear_in_events(self):
        import gc
        import tracemalloc

        n = 23
        g, _cover = generators.sequencer_architecture(
            3, 4, 16, rng=random.Random(1)
        )
        assert g.n_vertices == n

        def retained(n_events):
            ex = random_execution(g, random.Random(5), steps=n_events)
            order = ex.delivery_order()[:n_events]
            assert len(order) == n_events
            gc.collect()
            tracemalloc.start()
            try:
                inc = IncrementalHBOracle(n, registry=MetricsRegistry())
                _stream(inc, ex, order)
                gc.collect()
                size, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert inc.n_events == n_events
            return size

        small, large = retained(4_000), retained(8_000)
        assert large <= 2.2 * small
        assert large / 8_000 <= 4 * n + 96
