"""Tests for conjunctive predicate detection."""

import pytest

from repro.applications.predicate import (
    detect_conjunctive,
    detect_with_inline,
)
from repro.clocks import StarInlineClock, VectorClock, replay_one
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import EventId
from repro.topology import generators


def chain_execution():
    """p0 -> p1 -> p2: every pair of marked events is ordered."""
    b = ExecutionBuilder(3)
    m1 = b.send(0, 1)
    b.receive(1, m1)
    m2 = b.send(1, 2)
    b.receive(2, m2)
    return b.freeze()


def concurrent_execution():
    b = ExecutionBuilder(3)
    b.local(0)
    b.local(1)
    b.local(2)
    return b.freeze()


class TestDetection:
    def test_concurrent_witness_found(self):
        ex = concurrent_execution()
        oracle = HappenedBeforeOracle(ex)
        result = detect_conjunctive(
            oracle.happened_before, {0: [1], 1: [1], 2: [1]}
        )
        assert result.found
        assert result.witness == {
            0: EventId(0, 1),
            1: EventId(1, 1),
            2: EventId(2, 1),
        }

    def test_chain_not_detectable(self):
        """All marked events are causally ordered — no consistent state."""
        ex = chain_execution()
        oracle = HappenedBeforeOracle(ex)
        result = detect_conjunctive(
            oracle.happened_before, {0: [1], 1: [1], 2: [1]}
        )
        assert not result.found

    def test_advancing_finds_later_witness(self):
        """The first candidates are ordered; later ones are concurrent."""
        b = ExecutionBuilder(2)
        m = b.send(0, 1)  # e1@p0 -> e1@p1
        b.receive(1, m)
        b.local(0)  # e2@p0, concurrent with e2@p1
        b.local(1)
        ex = b.freeze()
        oracle = HappenedBeforeOracle(ex)
        result = detect_conjunctive(
            oracle.happened_before, {0: [1, 2], 1: [1, 2]}
        )
        assert result.found
        assert result.steps >= 1
        assert result.witness[0].index in (1, 2)
        # witness must be pairwise concurrent
        e, f = result.witness[0], result.witness[1]
        assert not oracle.happened_before(e, f)
        assert not oracle.happened_before(f, e)

    def test_empty_marks_for_one_process(self):
        ex = concurrent_execution()
        oracle = HappenedBeforeOracle(ex)
        result = detect_conjunctive(
            oracle.happened_before, {0: [1], 1: []}
        )
        assert not result.found

    def test_no_participants_trivially_true(self):
        ex = concurrent_execution()
        oracle = HappenedBeforeOracle(ex)
        assert detect_conjunctive(oracle.happened_before, {}).found

    def test_non_increasing_marks_rejected(self):
        ex = concurrent_execution()
        oracle = HappenedBeforeOracle(ex)
        with pytest.raises(ValueError):
            detect_conjunctive(oracle.happened_before, {0: [2, 1]})

    def test_timestamp_comparator_agrees_with_oracle(self):
        ex = chain_execution()
        oracle = HappenedBeforeOracle(ex)
        asg = replay_one(ex, VectorClock(3))
        r_oracle = detect_conjunctive(
            oracle.happened_before, {0: [1], 1: [1], 2: [1]}
        )
        r_ts = detect_conjunctive(asg.precedes, {0: [1], 1: [1], 2: [1]})
        assert r_oracle.found == r_ts.found


class TestInlineDetection:
    def test_detects_on_finalized_cut(self):
        """Inline detection works once the events have finalized."""
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        # both radials do a send + round trip so their events finalize
        m1 = b.send(1, 0)
        m2 = b.send(2, 0)
        b.receive(0, m1)
        b.receive(0, m2)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        # control messages were delivered instantly in replay, so the two
        # send events are finalized during the run
        result = detect_with_inline(asg, {1: [1], 2: [1]})
        assert result.found

    def test_unfinalized_marks_block_detection(self):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)  # never finalizes during run (no round trip)
        b.local(2)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        result = detect_with_inline(asg, {1: [1], 2: [1]})
        assert not result.found

    def test_explicit_finalized_set(self):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)
        b.local(2)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=True)
        result = detect_with_inline(
            asg,
            {1: [1], 2: [1]},
            finalized={EventId(1, 1), EventId(2, 1)},
        )
        assert result.found
