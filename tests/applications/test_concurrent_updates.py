"""Tests for concurrent-update (conflict) detection."""

import pytest

from repro.applications.concurrent_updates import conflict_resolution_status
from repro.clocks import StarInlineClock, VectorClock, replay_one
from repro.core import ExecutionBuilder
from repro.core.events import EventId
from repro.topology import generators


def star_updates_execution():
    """Two concurrent updates to 'x' at p1/p2, then a causally later one."""
    g = generators.star(3)
    b = ExecutionBuilder(3, graph=g)
    b.local(1)  # e1@p1: update x   (concurrent with e1@p2)
    b.local(2)  # e1@p2: update x
    m1 = b.send(1, 0)
    b.receive(0, m1)
    m2 = b.send(0, 2)
    b.receive(2, m2)  # e2@p2
    b.local(2)  # e3@p2: update x, causally after e1@p1
    ex = b.freeze()
    updates = {
        EventId(1, 1): "x",
        EventId(2, 1): "x",
        EventId(2, 3): "x",
    }
    return ex, updates


def true_conflicts(ex, updates):
    """The ground-truth side of the report: concurrent same-key pairs."""
    report = conflict_resolution_status(
        replay_one(ex, VectorClock(ex.n_processes)), updates
    )
    return report.true_conflicts


class TestFindConflicts:
    def test_ground_truth_conflicts(self):
        ex, updates = star_updates_execution()
        conflicts = true_conflicts(ex, updates)
        assert frozenset({EventId(1, 1), EventId(2, 1)}) in conflicts
        # e1@p1 -> e3@p2, so not a conflict
        assert frozenset({EventId(1, 1), EventId(2, 3)}) not in conflicts
        # e1@p2 -> e3@p2 (same process), not a conflict
        assert frozenset({EventId(2, 1), EventId(2, 3)}) not in conflicts

    def test_different_keys_never_conflict(self):
        ex, _ = star_updates_execution()
        updates = {EventId(1, 1): "x", EventId(2, 1): "y"}
        assert true_conflicts(ex, updates) == set()


class TestResolutionStatus:
    def test_vector_clock_exact(self):
        ex, updates = star_updates_execution()
        asg = replay_one(ex, VectorClock(3))
        report = conflict_resolution_status(asg, updates)
        assert report.exact
        assert report.undecided_pairs == 0

    def test_inline_after_finalization_exact(self):
        ex, updates = star_updates_execution()
        asg = replay_one(ex, StarInlineClock(3))
        report = conflict_resolution_status(asg, updates)
        assert report.exact

    def test_partial_finalization_leaves_pairs_undecided(self):
        ex, updates = star_updates_execution()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        finalized = set(asg.finalized_during_run)
        report = conflict_resolution_status(asg, updates, finalized=finalized)
        # at least the never-communicating update events are undecided
        assert report.undecided_pairs > 0
        # and nothing detected is wrong
        assert not report.spurious

    def test_missed_vs_spurious_accounting(self):
        ex, updates = star_updates_execution()
        asg = replay_one(ex, VectorClock(3))
        report = conflict_resolution_status(asg, updates)
        assert report.missed == frozenset()
        assert report.spurious == frozenset()
