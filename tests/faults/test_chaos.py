"""Tests for the chaos harness (scenario sweep + invariant checks)."""

import hashlib
from functools import partial

import pytest

from repro.clocks import LamportClock, SKVectorClock, StarInlineClock
from repro.conformance.registry import build_clock
from repro.faults import (
    ChaosCell,
    ChaosScenario,
    CompositeFault,
    CrashSchedule,
    DuplicationFault,
    GilbertElliottLoss,
    PartitionFault,
    ROW_HEADER,
    default_scenarios,
    run_chaos,
)
from repro.obs.tracing import RunTracer, deterministic_run_id
from repro.topology import generators

N = 6


def factories():
    return {
        "inline": lambda: StarInlineClock(N),
        "lamport": lambda: LamportClock(N),
    }


class TestDefaultScenarios:
    def test_full_set_covers_the_fault_taxonomy(self):
        names = [s.name for s in default_scenarios(N)]
        assert names[0] == "baseline"
        for expected in ("burst-loss-30", "control-loss-10", "duplication",
                         "partition-heal", "crash-recovery"):
            assert expected in names

    def test_quick_subset(self):
        quick = {s.name for s in default_scenarios(N, quick=True)}
        assert quick == {"burst-loss-30", "duplication", "crash-recovery"}

    def test_scenarios_scale_with_process_count(self):
        for n in (3, 12):
            for s in default_scenarios(n):
                if isinstance(s.fault, CrashSchedule):
                    assert s.fault.process_up(n - 1, 5.0) is False


class TestRunChaos:
    def test_sweep_upholds_invariants_and_fills_cells(self):
        g = generators.star(N)
        report = run_chaos(
            g, factories(), scenarios=default_scenarios(N, quick=True),
            events_per_process=8, seed=0,
        )
        assert report.ok
        assert len(report.cells) == 3 * 2
        assert report.failures() == []
        rows = report.rows()
        assert len(rows) == len(report.cells)
        assert all(len(r) == len(ROW_HEADER) for r in rows)

    def test_fifo_requiring_clock_is_skipped(self):
        g = generators.star(N)
        fs = dict(factories())
        fs["sk"] = lambda: SKVectorClock(N)
        report = run_chaos(
            g, fs, scenarios=[ChaosScenario(name="baseline")],
            events_per_process=5, seed=0,
        )
        assert report.skipped == ["sk"]
        assert {c.clock for c in report.cells} == {"inline", "lamport"}

    def test_crash_scenario_verifies_checkpoints(self):
        g = generators.star(N)
        report = run_chaos(
            g, factories(),
            scenarios=[ChaosScenario(
                name="crash", fault=CrashSchedule({2: [(3.0, 9.0)]}))],
            events_per_process=10, seed=1,
        )
        assert report.ok
        assert all(c.checkpoint_ok for c in report.cells)

    def test_unreliable_mode_reduces_inline_coverage(self):
        g = generators.star(N)
        scenario = ChaosScenario(
            name="loss",
            fault=GilbertElliottLoss(p_enter_burst=0.15, p_exit_burst=0.35,
                                     scope="control"),
        )
        kw = dict(scenarios=[scenario], events_per_process=15, seed=1)
        rel = run_chaos(g, factories(), reliable=True, **kw)
        raw = run_chaos(g, factories(), reliable=False, **kw)
        cell = lambda rep: next(  # noqa: E731
            c for c in rep.cells if c.clock == "inline")
        assert rel.ok and raw.ok
        assert cell(rel).finalized_fraction > cell(raw).finalized_fraction
        assert cell(rel).retransmissions > 0
        assert cell(raw).retransmissions == 0


class TestFullSweepTrace:
    """All six default scenarios, pinned byte for byte.  The tracer carries
    the header ``repro chaos --events 10 [--unreliable] --trace-out``
    writes (star, n = 8, seed 0, the default clocks), so each digest is
    also that command's file's, wherever its cells ran."""

    @pytest.mark.parametrize("reliable, digest", [
        (True, "a22a1453ed59adc1712708a1d6ea94e8fc94dea21fb68f25675eb3a022edd40d"),
        (False, "1ff33ccdf70af279977522be1d30ca00488b6e0b33a86a67e3d76a207009151b"),
    ], ids=["reliable", "unreliable"])
    def test_the_full_sweep_trace_is_pinned(self, reliable, digest):
        graph = generators.star(8)
        clocks = ["inline", "vector", "lamport"]
        meta = dict(clocks=clocks, events=10, n=8, quick=False,
                    reliable=reliable, seed=0, topology="star")
        tracer = RunTracer(
            kind="chaos",
            run_id=deterministic_run_id("chaos", tuple(meta.items())),
            meta=meta,
        )
        report = run_chaos(
            graph,
            {name: partial(build_clock, name, graph) for name in clocks},
            events_per_process=10, seed=0, reliable=reliable, tracer=tracer,
        )
        assert report.ok
        assert [c.scenario for c in report.cells[::3]] == [
            s.name for s in default_scenarios(8)
        ]
        text = "".join(line + "\n" for line in tracer.lines())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _combined_fault():
    """Duplication + a healing partition + a mid-run crash, all at once."""
    half = list(range(N // 2))
    rest = list(range(N // 2, N))
    return CompositeFault(
        [
            DuplicationFault(rate=0.3, copies=2),
            PartitionFault([half, rest], start=3.0, duration=4.0),
            CrashSchedule({N - 1: [(5.0, 11.0)]}),
        ]
    )


class TestCombinedFaultCheckpoints:
    """Crash-recovery checkpoint restore while duplication and a partition
    are ALSO active — the fault classes compose, and permanence must hold
    on the snapshot taken mid-chaos, not just in the clean crash scenario."""

    def test_checkpoint_restore_under_duplication_plus_partition(self):
        from repro.faults.chaos import _checkpoint_permanence_ok
        from repro.sim.network import RetryPolicy
        from repro.sim.runner import Simulation
        from repro.sim.workload import UniformWorkload

        g = generators.star(N)
        fs = factories()
        sim = Simulation(
            g,
            seed=3,
            clocks={name: factory() for name, factory in fs.items()},
            fault_model=_combined_fault(),
            control_retry=RetryPolicy(),
        )
        result = sim.run(UniformWorkload(events_per_process=12))
        assert result.crash_checkpoints  # the crash really snapshotted
        for name, factory in fs.items():
            assert _checkpoint_permanence_ok(result, name, factory)

    def test_sweep_cell_upholds_invariants_under_combined_faults(self):
        g = generators.star(N)
        report = run_chaos(
            g, factories(),
            scenarios=[ChaosScenario(name="combined", fault=_combined_fault())],
            events_per_process=12, seed=3,
        )
        assert report.ok
        assert all(c.checkpoint_ok and c.causality_ok for c in report.cells)
        cell = next(c for c in report.cells if c.clock == "inline")
        # the partition + crash really interfered with the app layer
        assert cell.dropped_app > 0


class TestChaosCell:
    def test_ok_requires_both_invariants(self):
        def cell(**kw):
            base = dict(scenario="s", clock="c", causality_ok=True,
                        checkpoint_ok=True, finalized_fraction=1.0,
                        mean_latency=0.0, retransmissions=0,
                        duplicates_suppressed=0, abandoned=0, dropped_app=0,
                        dropped_control=0, suppressed_events=0)
            base.update(kw)
            return ChaosCell(**base)

        assert cell().ok
        assert not cell(checkpoint_ok=False).ok
        assert not cell(causality_ok=False).ok
