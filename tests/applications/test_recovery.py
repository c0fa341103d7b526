"""Tests for checkpointing and recovery-line computation.

``oracles_for`` (tests/conftest.py) hands the recovery-line tests the batch
oracle, a frozen streaming oracle and a streaming oracle caught mid-run (for
which checkpoints are clipped to the events appended so far), and each test
loops over them.
"""

import pytest

from repro.applications.recovery import (
    periodic_checkpoints,
    recovery_line,
    recovery_line_lag,
)
from repro.clocks import StarInlineClock, VectorClock
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.cuts import cut_size, full_cut, is_consistent
from repro.sim import ConstantDelay, Simulation, UniformWorkload
from repro.topology import generators
from tests.helpers import clip_checkpoints


@pytest.fixture
def small_oracles(oracles_for, small_star_execution):
    """Mid-run, the streaming oracle has seen (2, 1, 1, 1) of (4, 3, 2, 1)."""
    return oracles_for(small_star_execution)


class TestCheckpoints:
    def test_periodic_positions(self, small_star_execution):
        cps = periodic_checkpoints(small_star_execution, every_k=2)
        assert cps[0] == [2, 4]  # p0 has 4 events
        assert cps[3] == []  # p3 has 1 event only

    def test_invalid_interval(self, small_star_execution):
        with pytest.raises(ValueError):
            periodic_checkpoints(small_star_execution, every_k=0)


class TestRecoveryLine:
    def test_full_checkpoints_consistent(self, small_oracles):
        for oracle in small_oracles:
            counts = full_cut(oracle)
            cps = {p: [k] if k else [] for p, k in enumerate(counts)}
            assert recovery_line(oracle, cps) == counts

    def test_domino_demotion(self, oracles_for):
        """p1 checkpoints after receiving from p0; if p0's checkpoint is
        before its send, p1 must roll back too."""
        b = ExecutionBuilder(2)
        b.local(0)  # e1@p0   <- p0's only checkpoint here
        m = b.send(0, 1)  # e2@p0
        b.receive(1, m)  # e1@p1
        b.local(1)  # e2@p1  <- p1 checkpoints here (depends on e2@p0)
        b.local(1)  # e3@p1
        for oracle in oracles_for(b.freeze()):  # mid-run: all of p0, e1@p1
            at_p1 = [1, 2][: oracle.event_count(1)]
            # p1's checkpoints depend on e2@p0, beyond p0's checkpoint
            assert recovery_line(oracle, {0: [1], 1: at_p1}) == (1, 0)
            assert recovery_line(oracle, {0: [1, 2], 1: at_p1}) == (
                2, at_p1[-1]
            )

    def test_line_is_always_consistent(
        self, small_oracles, small_star_execution
    ):
        ref = HappenedBeforeOracle(small_star_execution)
        for oracle in small_oracles:
            for every_k in (1, 2):
                cps = clip_checkpoints(
                    periodic_checkpoints(small_star_execution, every_k),
                    oracle,
                )
                line = recovery_line(oracle, cps)
                assert is_consistent(oracle, line)
                assert line == recovery_line(ref, cps)

    def test_allowed_filter_restricts(
        self, small_oracles, small_star_execution
    ):
        for oracle in small_oracles:
            cps = clip_checkpoints(
                periodic_checkpoints(small_star_execution, 1), oracle
            )
            full = recovery_line(oracle, cps)
            calls = []

            def allowed(e):
                calls.append(e)
                return e.proc != 0 or e.index <= 1

            restricted = recovery_line(oracle, cps, allowed=allowed)
            assert cut_size(restricted) <= cut_size(full)
            assert restricted[0] <= 1
            # each process's allowed prefix is found once, not per checkpoint
            assert len(calls) == len(set(calls)) <= cut_size(full_cut(oracle))

    def test_out_of_range_checkpoint(self, small_oracles):
        for oracle in small_oracles:
            with pytest.raises(ValueError):
                recovery_line(oracle, {0: [99]})


class TestRecoveryLag:
    def run_sim(self):
        g = generators.star(5)
        sim = Simulation(
            g,
            seed=2,
            clocks={"inline": StarInlineClock(5), "vector": VectorClock(5)},
            delay_model=ConstantDelay(1.0),
        )
        return sim.run(UniformWorkload(events_per_process=15, p_local=0.3))

    def test_inline_line_never_ahead(self):
        res = self.run_sim()
        for frac in (0.25, 0.5, 0.75, 1.0):
            cmp = recovery_line_lag(
                res, "inline", failure_time=res.duration * frac, every_k=3
            )
            assert cmp.lag_events >= 0
            assert cmp.inline_events <= cmp.online_events

    def test_online_clock_has_zero_lag(self):
        res = self.run_sim()
        cmp = recovery_line_lag(
            res, "vector", failure_time=res.duration / 2, every_k=3
        )
        assert cmp.lag_events == 0

    def test_lag_vanishes_after_quiescence(self):
        """At the end of the run (plus control delivery), inline and online
        lines coincide except for events whose controls never flowed."""
        res = self.run_sim()
        cmp = recovery_line_lag(
            res, "inline", failure_time=res.duration, every_k=1
        )
        # lag bounded by the events still awaiting finalization
        unfinalized = res.execution.n_events - len(
            res.finalization_times["inline"]
        )
        assert cmp.lag_events <= unfinalized
