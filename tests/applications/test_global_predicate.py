"""Tests for Cooper–Marzullo possibly/definitely detection.

``oracles_for`` (tests/conftest.py) hands each test the batch oracle, a
frozen streaming oracle and a streaming oracle caught mid-run, and the test
loops over them.  The mid-run lattice is the sublattice inside
``full_cut(oracle)``, so expectations are stated against that bound.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.applications.global_predicate import (
    definitely,
    enumerate_consistent_cuts,
    possibly,
)
from repro.clocks import StarInlineClock, replay_one
from repro.core import (
    ExecutionBuilder,
    HappenedBeforeOracle,
    IncrementalHBOracle,
    incremental_from_execution,
)
from repro.core.cuts import full_cut, is_consistent, max_consistent_cut_within, meet
from repro.core.random_executions import random_execution
from repro.topology import generators
from tests.helpers import leq


def two_process_race():
    """p0: two local events; p1: two local events (independent).  Mid-run
    (``delivery_order()`` is process-major) only p0's two have happened."""
    b = ExecutionBuilder(2)
    b.local(0)
    b.local(0)
    b.local(1)
    b.local(1)
    return b.freeze()


def chain():
    """p0 sends, p1 receives."""
    b = ExecutionBuilder(2)
    m = b.send(0, 1)
    b.receive(1, m)
    return b.freeze()


def possibly_within_finalized(assignment, predicate, oracle=None):
    """``possibly`` inside the largest consistent cut of the events
    *assignment* finalized during its run (the Section-6 recipe): the
    witness, or ``None`` for "not detectable yet", and that cut."""
    if oracle is None:
        oracle = HappenedBeforeOracle(assignment.execution)
    finalized = set(assignment.finalized_during_run)
    limit = max_consistent_cut_within(oracle, finalized.__contains__)
    return possibly(oracle, predicate, within=limit), limit


class TestEnumeration:
    def test_independent_events_form_grid(self, oracles_for):
        for oracle in oracles_for(two_process_race()):
            rows, cols = full_cut(oracle)  # (2, 2); (2, 0) mid-run
            cuts = list(enumerate_consistent_cuts(oracle))
            assert len(cuts) == (rows + 1) * (cols + 1)
            assert set(cuts) == {
                (i, j) for i in range(rows + 1) for j in range(cols + 1)
            }

    def test_chain_collapses_lattice(self, oracles_for):
        for oracle in oracles_for(chain()):
            cuts = set(enumerate_consistent_cuts(oracle))
            bound = full_cut(oracle)
            assert cuts == {
                c for c in [(0, 0), (1, 0), (1, 1)] if leq(c, bound)
            }

    def test_all_enumerated_cuts_consistent(self, oracles_for):
        rng = random.Random(5)
        ex = random_execution(generators.star(3), rng, steps=12)
        ref = HappenedBeforeOracle(ex)
        for oracle in oracles_for(ex):
            for cut in enumerate_consistent_cuts(oracle):
                assert is_consistent(oracle, cut)
                assert is_consistent(ref, cut)
            assert set(enumerate_consistent_cuts(oracle)) == set(
                enumerate_consistent_cuts(ref, within=full_cut(oracle))
            )


class TestPossibly:
    def test_finds_minimal_witness(self, oracles_for):
        for oracle in oracles_for(two_process_race()):
            witness = possibly(oracle, lambda c: c[0] >= 1 and c[1] >= 1)
            inside = leq((1, 1), full_cut(oracle))
            assert witness == ((1, 1) if inside else None)

    def test_unsatisfiable(self, oracles_for):
        for oracle in oracles_for(two_process_race()):
            assert possibly(oracle, lambda c: c[0] > 99) is None

    def test_causally_excluded_state(self, oracles_for):
        """p0's second event is the send received as p1's first event: the
        state (2 events at p0, 0 at p1)... is reachable, but (0, 1) isn't."""
        b = ExecutionBuilder(2)
        b.local(0)
        m = b.send(0, 1)
        b.receive(1, m)
        for oracle in oracles_for(b.freeze()):
            assert possibly(oracle, lambda c: c == (2, 0)) == (2, 0)
            assert possibly(oracle, lambda c: c == (0, 1)) is None


class TestDefinitely:
    def test_unavoidable_state(self, oracles_for):
        """On a chain the intermediate cut (1, 0) is on every path."""
        for oracle in oracles_for(chain()):
            assert definitely(oracle, lambda c: c == (1, 0))

    def test_avoidable_state(self, oracles_for):
        """On the grid the state (1, 0) can be bypassed via (0, 1) — once
        p1 has taken a step."""
        for oracle in oracles_for(two_process_race()):
            bypass = leq((0, 1), full_cut(oracle))
            assert definitely(oracle, lambda c: c == (1, 0)) == (not bypass)

    def test_diagonal_barrier_is_definite(self, oracles_for):
        """Any antichain barrier (here: total events == 2) is unavoidable."""
        for oracle in oracles_for(two_process_race()):
            assert definitely(oracle, lambda c: sum(c) == 2)

    def test_endpoint_predicates(self, oracles_for):
        for oracle in oracles_for(two_process_race()):
            assert definitely(oracle, lambda c: sum(c) == 0)  # empty cut
            assert definitely(oracle, lambda c: c == full_cut(oracle))

    def test_possibly_weaker_than_definitely(self, oracles_for):
        """definitely implies possibly on any execution/predicate pair."""
        rng = random.Random(9)
        ex = random_execution(generators.star(3), rng, steps=10)
        pred = lambda c: sum(c) == 3
        for oracle in oracles_for(ex):
            if definitely(oracle, pred):
                assert possibly(oracle, pred) is not None


class TestWithinValidation:
    """``within`` must be a consistent cut of the oracle's execution: an
    inconsistent one used to make every ``definitely`` hold vacuously."""

    WALKERS = [
        lambda o, w: enumerate_consistent_cuts(o, within=w),
        lambda o, w: possibly(o, lambda c: False, within=w),
        lambda o, w: definitely(o, lambda c: False, within=w),
        lambda o, w: list(enumerate_consistent_cuts(o, within=w)),
    ]

    @pytest.mark.parametrize("walk", WALKERS)
    def test_inconsistent_within_rejected(self, oracles_for, walk):
        b = ExecutionBuilder(2)
        m = b.send(0, 1)
        b.receive(1, m)
        b.local(1)
        # mid-run: the send and its receive
        for oracle in oracles_for(b.freeze()):
            assert not definitely(oracle, lambda c: False)
            with pytest.raises(ValueError, match="not a consistent cut"):
                walk(oracle, (0, 1))

    @pytest.mark.parametrize("walk", WALKERS)
    def test_out_of_range_within_rejected(self, oracles_for, walk):
        for oracle in oracles_for(chain()):
            with pytest.raises(ValueError, match="out of range"):
                walk(oracle, (2, 0))

    @pytest.mark.parametrize("walk", WALKERS)
    def test_short_within_rejected(self, oracles_for, walk):
        for oracle in oracles_for(chain()):
            with pytest.raises(ValueError, match="length"):
                walk(oracle, (1,))

    def test_consistent_within_still_walks(self, oracles_for):
        for oracle in oracles_for(two_process_race()):
            assert len(list(enumerate_consistent_cuts(oracle, within=(1, 0)))) == 2
            assert not definitely(oracle, lambda c: False, within=(1, 0))


class TestInlineIntegration:
    def test_witness_within_finalized_cut(self, oracles_for):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        m1 = b.send(1, 0)
        m2 = b.send(2, 0)
        b.receive(0, m1)
        b.receive(0, m2)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        pred = lambda c: c[1] >= 1 and c[2] >= 1
        default_limit = possibly_within_finalized(asg, pred)[1]
        for oracle in oracles_for(ex):  # mid-run: the two sends
            witness, limit = possibly_within_finalized(asg, pred, oracle=oracle)
            assert witness is not None
            # the witness lies inside the finalized cut, which is the
            # default oracle's clipped to what this oracle has seen
            assert leq(witness, limit)
            assert limit == meet(default_limit, full_cut(oracle))

    def test_not_yet_detectable(self, oracles_for):
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)  # never finalizes during the run
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3), finalize=False)
        for oracle in oracles_for(ex):
            witness, limit = possibly_within_finalized(
                asg, lambda c: c[1] >= 1, oracle=oracle
            )
            assert witness is None
            assert limit == (0, 0, 0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_inline_witness_always_valid_globally(self, oracles_for, seed):
        """A witness found in the sublattice is a witness in the full
        lattice (monotonicity of the Section-6 recipe)."""
        rng = random.Random(seed)
        ex = random_execution(generators.star(4), rng, steps=18)
        ref = HappenedBeforeOracle(ex)
        asg = replay_one(ex, StarInlineClock(4), finalize=False)
        pred = lambda c: sum(c) >= 4
        for oracle in oracles_for(ex):
            witness, _limit = possibly_within_finalized(asg, pred, oracle=oracle)
            if witness is not None:
                assert is_consistent(ref, witness)
                assert pred(witness)


class TestStreamingOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_walkers_match_batch(self, seed):
        ex = random_execution(generators.star(4), random.Random(seed), steps=14,
                              deliver_all=True)
        inc = incremental_from_execution(ex)
        batch = HappenedBeforeOracle(ex)
        pred = lambda cut: sum(cut) >= 3  # noqa: E731
        assert possibly(inc, pred) == possibly(batch, pred)
        assert definitely(inc, pred) == definitely(batch, pred)
        assert (list(enumerate_consistent_cuts(inc))
                == list(enumerate_consistent_cuts(batch)))

    def test_mid_stream_lattice_grows_upward(self):
        """A ``possibly`` witness found on a prefix stays valid on the full
        stream: the lattice only gains cuts above the old limit."""
        ex = random_execution(generators.star(4), random.Random(8), steps=16,
                              deliver_all=True)
        inc = IncrementalHBOracle(ex.n_processes)
        pred = lambda cut: sum(cut) >= 2  # noqa: E731
        witness_seen = None
        for ev in ex.delivery_order():
            if ev.is_receive:
                inc.append_receive(ev.eid, ex.send_of(ev).eid)
            else:
                inc.append_event(ev)
            if witness_seen is None:
                witness_seen = possibly(inc, pred)
        assert witness_seen is not None
        assert witness_seen in set(enumerate_consistent_cuts(inc))
