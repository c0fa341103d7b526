"""Tests for the time-travel analysis session.

The session owns a batch oracle; the cuts it hands out are re-checked on
each of ``oracles_for`` (tests/conftest.py): batch, a frozen streaming
oracle, and one caught mid-run, clipped (``meet``) to the events it has
seen.
"""

import pytest

from repro.applications.predicate import detect_conjunctive
from repro.applications.recovery import periodic_checkpoints, recovery_line
from repro.applications.session import AnalysisSession
from repro.clocks import StarInlineClock, VectorClock
from repro.core.cuts import (
    events_in_cut,
    full_cut,
    is_consistent,
    max_consistent_cut_within,
    meet,
)
from repro.core.events import EventId
from repro.sim import ConstantDelay, Simulation, UniformWorkload
from repro.topology import generators
from tests.helpers import clip_checkpoints


@pytest.fixture(scope="module")
def run():
    g = generators.star(5)
    sim = Simulation(
        g,
        seed=9,
        clocks={"inline": StarInlineClock(5), "vector": VectorClock(5)},
        delay_model=ConstantDelay(1.0),
    )
    return sim.run(UniformWorkload(events_per_process=15, p_local=0.3))


class TestSnapshots:
    def test_unknown_clock_rejected(self, run):
        with pytest.raises(KeyError):
            AnalysisSession(run, "nope")

    def test_before_start_empty(self, run):
        session = AnalysisSession(run, "inline")
        snap = session.snapshot(-1.0)
        assert snap.finalized_events == 0
        assert snap.occurred_events == 0

    def test_monotone_knowledge(self, run):
        session = AnalysisSession(run, "inline")
        curve = session.knowledge_curve(8)
        for a, b in zip(curve, curve[1:]):
            assert a.finalized_events <= b.finalized_events
            assert a.occurred_events <= b.occurred_events

    def test_gap_nonnegative_and_closes(self, run):
        session = AnalysisSession(run, "inline")
        curve = session.knowledge_curve(8)
        for snap in curve:
            assert snap.knowledge_gap >= 0
        # by the end most knowledge is finalized
        assert curve[-1].knowledge_gap <= run.execution.n_events * 0.2

    def test_online_clock_has_no_gap(self, run):
        session = AnalysisSession(run, "vector")
        for snap in session.knowledge_curve(6):
            assert snap.knowledge_gap == 0

    def test_cuts_always_consistent(self, run, oracles_for):
        session = AnalysisSession(run, "inline")
        fin_times = run.finalization_times["inline"]
        oracles = oracles_for(run.execution)
        for snap in session.knowledge_curve(10):
            assert is_consistent(session.oracle, snap.finalized_cut)
            finalized = {e for e, t in fin_times.items() if t <= snap.time}
            for oracle in oracles:
                clipped = meet(snap.finalized_cut, full_cut(oracle))
                assert is_consistent(oracle, clipped)
                # the replayed monitor and the table fix-point agree
                assert clipped == max_consistent_cut_within(
                    oracle, lambda e: e in finalized
                )


class TestQueries:
    def test_recovery_line_within_finalized_cut(self, run, oracles_for):
        session = AnalysisSession(run, "inline")
        oracles = oracles_for(run.execution)
        for t in (run.duration / 4, run.duration / 2, run.duration):
            line = session.recovery_line_at(t, every_k=3)
            snap = session.snapshot(t)
            assert all(
                l <= c for l, c in zip(line, snap.finalized_cut)
            )
            assert is_consistent(session.oracle, line)
            # the same line from the finalized *set*, on whichever oracle,
            # through the checkpoints that oracle's events have reached
            finalized = events_in_cut(session.oracle, session.snapshot(t).finalized_cut)
            for oracle in oracles:
                cps = clip_checkpoints(
                    periodic_checkpoints(run.execution, 3), oracle
                )
                clipped = recovery_line(
                    oracle, cps, allowed=lambda e: e in finalized
                )
                assert is_consistent(oracle, clipped)
                if full_cut(oracle) == full_cut(session.oracle):
                    assert clipped == line
                else:
                    assert all(c <= l for c, l in zip(clipped, line))

    def test_detection_grows_monotone(self, run):
        session = AnalysisSession(run, "inline")
        ex = run.execution
        marks = {
            p: list(range(2, len(ex.events_at(p)) + 1))
            for p in range(1, 5)
            if len(ex.events_at(p)) >= 2
        }
        times = (0.0, run.duration / 2, run.duration)
        found_at = [session.detect_at(t, marks).found for t in times]
        # once detectable, stays detectable (marks only accumulate)
        for a, b in zip(found_at, found_at[1:]):
            assert (not a) or b
        # pruning by cut position == pruning by finalized-set membership
        for t in times:
            finalized = events_in_cut(session.oracle, session.snapshot(t).finalized_cut)
            pruned = {
                p: [i for i in idxs if EventId(p, i) in finalized]
                for p, idxs in marks.items()
            }
            expected = all(pruned.values()) and detect_conjunctive(
                session.oracle.happened_before, pruned
            ).found
            assert session.detect_at(t, marks).found == expected

    def test_curve_point_validation(self, run):
        session = AnalysisSession(run, "inline")
        with pytest.raises(ValueError):
            session.knowledge_curve(1)
