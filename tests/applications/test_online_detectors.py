"""Tests for the online application detectors over the streaming oracle.

Each detector's online answers are cross-checked against the batch
implementation run over the completed execution — soundness rests on
append-monotonicity (a verdict about appended events never changes), so
online and batch must agree exactly.
"""

import random

import pytest

from repro.applications.concurrent_updates import (
    OnlineConcurrentUpdateDetector,
    find_conflicts,
)
from repro.applications.global_predicate import (
    count_consistent_cuts,
    definitely,
    enumerate_consistent_cuts,
    possibly,
)
from repro.applications.predicate import (
    OnlineConjunctiveDetector,
    detect_conjunctive,
)
from repro.core import (
    HappenedBeforeOracle,
    IncrementalHBOracle,
    incremental_from_execution,
)
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators


def _stream(ex):
    """Oracle plus the delivery order used to feed it."""
    inc = IncrementalHBOracle(ex.n_processes)
    return inc, ex.delivery_order()


def _feed(inc, ex, ev):
    if ev.is_receive:
        inc.append_receive(ev.eid, ex.send_of(ev).eid)
    else:
        inc.append_event(ev)


class TestOnlineConcurrentUpdates:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_batch_ground_truth(self, seed):
        g = generators.star(5)
        ex = random_execution(g, random.Random(seed), steps=70,
                              deliver_all=True)
        inc, order = _stream(ex)
        upd_rng = random.Random(seed + 50)
        updates = {}
        det = OnlineConcurrentUpdateDetector(inc)
        for ev in order:
            _feed(inc, ex, ev)
            if upd_rng.random() < 0.4:
                key = upd_rng.choice("xyz")
                updates[ev.eid] = key
                det.record_update(ev.eid, key)
        batch = HappenedBeforeOracle(ex)
        assert det.conflicts == find_conflicts(
            batch.happened_before, updates
        )
        assert dict(det.updates()) == updates
        assert det.n_updates == len(updates)

    def test_verdicts_are_final(self):
        # a conflict reported early must still be a conflict at the end,
        # and record_update returns exactly the new conflict peers
        g = generators.star(4)
        ex = random_execution(g, random.Random(3), steps=60,
                              deliver_all=True)
        inc, order = _stream(ex)
        det = OnlineConcurrentUpdateDetector(inc)
        early = {}
        for i, ev in enumerate(order):
            _feed(inc, ex, ev)
            fresh = det.record_update(ev.eid, "k")
            for other in fresh:
                early[frozenset((other, ev.eid))] = i
        batch = HappenedBeforeOracle(ex)
        truth = find_conflicts(
            batch.happened_before, {ev.eid: "k" for ev in order}
        )
        assert set(early) == truth
        assert det.conflicts == truth

    def test_causally_ordered_chain_has_no_conflicts(self):
        # a message relay is totally ordered: updates along it never conflict
        from repro.core import ExecutionBuilder

        b = ExecutionBuilder(3)
        m0 = b.send(0, 1)
        b.receive(1, m0)
        m1 = b.send(1, 2)
        b.receive(2, m1)
        ex = b.freeze()
        inc, order = _stream(ex)
        det = OnlineConcurrentUpdateDetector(inc)
        for ev in order:
            _feed(inc, ex, ev)
            assert det.record_update(ev.eid, "k") == []
        assert det.conflicts == set()
        assert det.pairs_checked == 6  # every earlier same-key update

    def test_rejects_unappended_event(self):
        inc = IncrementalHBOracle(2)
        det = OnlineConcurrentUpdateDetector(inc)
        with pytest.raises(ValueError, match="not been appended"):
            det.record_update(EventId(0, 1), "k")


class TestOnlineConjunctivePredicate:
    def _random_marks(self, ex, procs, rng):
        per = {p: len(ex.events_at(p)) for p in procs}
        marks = {}
        for p in procs:
            n = per[p]
            if n == 0:
                return None
            marks[p] = sorted(rng.sample(range(1, n + 1), min(3, n)))
        return marks

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_batch_detector(self, seed):
        g = generators.star(4)
        ex = random_execution(g, random.Random(seed), steps=55,
                              deliver_all=True)
        rng = random.Random(seed + 7)
        procs = [0, 1, 2]
        marks = self._random_marks(ex, procs, rng)
        if marks is None:
            pytest.skip("a participating process has no events")
        ref = detect_conjunctive(
            HappenedBeforeOracle(ex).happened_before, marks
        )
        inc, order = _stream(ex)
        det = OnlineConjunctiveDetector(inc, procs)
        mark_set = {EventId(p, i) for p in procs for i in marks[p]}
        last = None
        for ev in order:
            _feed(inc, ex, ev)
            if ev.eid in mark_set:
                det.mark(ev.eid)
                last = det.check()
        assert last is not None
        assert last.found == ref.found
        if ref.found:
            assert last.witness == ref.witness

    def test_found_answer_is_final(self):
        # once check() returns found=True, later marks/appends keep it
        g = generators.star(4)
        ex = random_execution(g, random.Random(21), steps=60,
                              deliver_all=True)
        inc, order = _stream(ex)
        procs = [0, 1]
        det = OnlineConjunctiveDetector(inc, procs)
        found_witness = None
        for ev in order:
            _feed(inc, ex, ev)
            if ev.eid.proc in procs:
                det.mark(ev.eid)
                res = det.check()
                if found_witness is None and res.found:
                    found_witness = res.witness
                elif found_witness is not None:
                    assert res.found
        if found_witness is not None:
            assert det.check().found

    def test_steps_accumulate_across_polls(self):
        g = generators.star(4)
        ex = random_execution(g, random.Random(2), steps=50,
                              deliver_all=True)
        inc, order = _stream(ex)
        det = OnlineConjunctiveDetector(inc, [0, 1, 2])
        prev = 0
        for ev in order:
            _feed(inc, ex, ev)
            if ev.eid.proc in (0, 1, 2):
                det.mark(ev.eid)
                det.check()
                assert det.steps >= prev  # monotone, never re-derived
                prev = det.steps

    def test_mark_validation(self, small_star_execution):
        ex = small_star_execution
        inc = incremental_from_execution(ex)
        det = OnlineConjunctiveDetector(inc, [0, 1])
        with pytest.raises(ValueError, match="does not participate"):
            det.mark(EventId(3, 1))
        det.mark(EventId(0, 1))
        with pytest.raises(ValueError, match="increasing"):
            det.mark(EventId(0, 1))
        with pytest.raises(ValueError, match="not been appended"):
            det.mark(EventId(1, 99))
        with pytest.raises(ValueError, match="at least one"):
            OnlineConjunctiveDetector(inc, [])

    def test_no_marks_yet_is_not_found(self, small_star_execution):
        inc = incremental_from_execution(small_star_execution)
        det = OnlineConjunctiveDetector(inc, [0, 1])
        res = det.check()
        assert not res.found and res.witness is None


class TestLatticeWalkersOnIncremental:
    @pytest.mark.parametrize("seed", range(6))
    def test_possibly_definitely_count_match_batch(self, seed):
        g = generators.star(4)
        ex = random_execution(g, random.Random(seed), steps=14,
                              deliver_all=True)
        inc = incremental_from_execution(ex)
        batch = HappenedBeforeOracle(ex)
        pred = lambda cut: sum(cut) >= 3  # noqa: E731
        assert possibly(inc, pred) == possibly(batch, pred)
        assert definitely(inc, pred) == definitely(batch, pred)
        assert count_consistent_cuts(inc) == count_consistent_cuts(batch)
        assert (list(enumerate_consistent_cuts(inc))
                == list(enumerate_consistent_cuts(batch)))

    def test_mid_stream_lattice_grows_upward(self):
        # a possibly() witness found on a prefix stays valid on the full
        # stream: the lattice only gains cuts above the old limit
        g = generators.star(4)
        ex = random_execution(g, random.Random(8), steps=16,
                              deliver_all=True)
        inc, order = _stream(ex)
        pred = lambda cut: sum(cut) >= 2  # noqa: E731
        witness_seen = None
        for ev in order:
            _feed(inc, ex, ev)
            if witness_seen is None:
                witness_seen = possibly(inc, pred)
        assert witness_seen is not None
        final_cuts = set(enumerate_consistent_cuts(inc))
        assert witness_seen in final_cuts
