"""Tests for the replayer, TimestampAssignment and ValidationReport."""

import pytest

from repro.clocks import (
    CoverInlineClock,
    LamportClock,
    StarInlineClock,
    VectorClock,
    replay,
    replay_one,
)
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import EventId
from repro.topology import generators


class TestReplayMechanics:
    def test_all_algorithms_see_same_execution(self, small_star_execution):
        algos = [VectorClock(4), LamportClock(4), StarInlineClock(4)]
        assignments = replay(small_star_execution, algos)
        for asg in assignments:
            assert len(asg) == small_star_execution.n_events

    def test_without_finalize_bottoms_remain(self):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)  # never communicates: post stays unknown
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        assert EventId(1, 1) not in asg
        assert len(asg) == 0

    def test_finalize_covers_everything(self):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=True)
        assert EventId(1, 1) in asg

    def test_finalized_during_run_subset(self, small_star_execution):
        asg = replay_one(small_star_execution, StarInlineClock(4))
        all_ids = {ev.eid for ev in small_star_execution.all_events()}
        assert asg.finalized_during_run <= all_ids
        # centre events always finalize during the run
        for eid in all_ids:
            if eid.proc == 0:
                assert eid in asg.finalized_during_run

    def test_getitem_missing_raises(self, small_star_execution):
        asg = replay_one(small_star_execution, VectorClock(4))
        with pytest.raises(KeyError):
            asg[EventId(3, 99)]

    def test_precedes_and_concurrent(self, small_star_execution):
        asg = replay_one(small_star_execution, VectorClock(4))
        assert asg.precedes(EventId(1, 1), EventId(0, 1))
        a, b = EventId(3, 1), EventId(0, 1)
        assert not asg.precedes(a, b) and not asg.precedes(b, a)

    def test_element_statistics(self, small_star_execution):
        asg = replay_one(small_star_execution, VectorClock(4))
        assert asg.max_elements() == 4
        assert asg.mean_elements() == pytest.approx(4.0)


class TestValidationReport:
    def test_exact_scheme(self, small_star_execution):
        report = replay_one(small_star_execution, VectorClock(4)).validate()
        assert report.characterizes
        assert report.is_consistent
        assert report.false_positive_rate == 0.0
        assert report.n_events == small_star_execution.n_events

    def test_lossy_scheme_counts_false_positives(self):
        b = ExecutionBuilder(3)
        b.local(0)
        b.local(1)
        b.local(2)
        ex = b.freeze()
        report = replay_one(ex, LamportClock(3)).validate()
        assert report.is_consistent
        assert not report.characterizes
        assert report.n_concurrent_pairs == 3
        assert 0 < report.false_positive_rate <= 1

    def test_validate_on_subset(self, small_star_execution):
        asg = replay_one(small_star_execution, VectorClock(4))
        subset = [EventId(0, 1), EventId(1, 1), EventId(3, 1)]
        report = asg.validate(events=subset)
        assert report.n_events == 3
        assert report.characterizes

    def test_pair_counts_sum(self, small_star_execution):
        report = replay_one(small_star_execution, VectorClock(4)).validate()
        n = report.n_events
        assert report.n_ordered_pairs + report.n_concurrent_pairs == n * (n - 1) // 2


class TestMultiAlgorithmAgreement:
    def test_characterizing_schemes_agree_pairwise(self, small_star_execution):
        g = generators.star(4)
        assignments = replay(
            small_star_execution,
            [VectorClock(4), StarInlineClock(4), CoverInlineClock(g)],
        )
        ids = [ev.eid for ev in small_star_execution.all_events()]
        for e in ids:
            for f in ids:
                if e == f:
                    continue
                answers = {a.precedes(e, f) for a in assignments}
                assert len(answers) == 1, (e, f)
