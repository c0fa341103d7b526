"""Tests for structured fault models, crash handling, and config guards."""

import math
import random

import pytest

from repro.clocks import SKVectorClock, StarInlineClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.faults import (
    DELIVER,
    DROP,
    NEVER,
    CompositeFault,
    CrashSchedule,
    DuplicationFault,
    FaultModel,
    GilbertElliottLoss,
    MessageFate,
    PartitionFault,
)
from repro.sim import ControlTransport, RetryPolicy, Simulation, UniformWorkload
from repro.topology import generators


class TestMessageFate:
    def test_constants(self):
        assert not DELIVER.drop and DELIVER.copies == 1
        assert DROP.drop

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            MessageFate(copies=0)


class TestGilbertElliott:
    def test_mean_loss_rate_formula(self):
        m = GilbertElliottLoss(p_enter_burst=0.1, p_exit_burst=0.3)
        pi_burst = 0.1 / 0.4
        assert m.mean_loss_rate() == pytest.approx(pi_burst * 1.0)

    def test_empirical_rate_matches_stationary_mean(self):
        m = GilbertElliottLoss(p_enter_burst=0.2, p_exit_burst=0.4)
        m.reset(rng := random.Random(0))
        drops = sum(
            m.message_fate(0, 1, float(t), rng).drop for t in range(20000)
        )
        assert drops / 20000 == pytest.approx(m.mean_loss_rate(), abs=0.02)

    def test_losses_are_bursty(self):
        """Consecutive drops cluster: given a drop, the next message on the
        channel is far likelier to drop than the stationary mean."""
        m = GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.3)
        m.reset(rng := random.Random(3))
        fates = [m.message_fate(0, 1, 0.0, rng).drop for _ in range(20000)]
        after_drop = [b for a, b in zip(fates, fates[1:]) if a]
        cond = sum(after_drop) / len(after_drop)
        assert cond > 2 * m.mean_loss_rate()

    def test_scope_filters(self):
        m = GilbertElliottLoss(p_enter_burst=1.0, scope="control")
        rng = random.Random(0)
        assert m.message_fate(0, 1, 0.0, rng, control=False) is DELIVER
        assert m.message_fate(0, 1, 0.0, rng, control=True).drop
        assert not m.can_disrupt_app()
        assert GilbertElliottLoss(scope="app").can_disrupt_app()

    def test_reset_restores_determinism(self):
        m = GilbertElliottLoss(p_enter_burst=0.3, p_exit_burst=0.3)
        runs = []
        for _ in range(2):
            m.reset(rng := random.Random(42))
            runs.append(
                [m.message_fate(0, 1, 0.0, rng).drop for _ in range(200)]
            )
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_enter_burst=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_enter_burst=0.0, p_exit_burst=0.0)
        with pytest.raises(ValueError):
            GilbertElliottLoss(scope="everything")


class TestDuplication:
    def test_always_duplicates_at_rate_one(self):
        m = DuplicationFault(rate=1.0, copies=3)
        fate = m.message_fate(0, 1, 0.0, random.Random(0))
        assert not fate.drop and fate.copies == 3

    def test_scope_control_spares_app(self):
        m = DuplicationFault(rate=1.0, scope="control")
        assert m.message_fate(0, 1, 0.0, random.Random(0)) is DELIVER
        assert not m.can_disrupt_app()

    def test_validation(self):
        with pytest.raises(ValueError):
            DuplicationFault(copies=1)
        with pytest.raises(ValueError):
            DuplicationFault(rate=2.0)


class TestPartition:
    def test_cuts_only_across_groups_during_window(self):
        m = PartitionFault([(0, 1), (2, 3)], start=5.0, duration=10.0)
        rng = random.Random(0)
        assert m.message_fate(0, 2, 7.0, rng).drop       # across, during
        assert not m.message_fate(0, 1, 7.0, rng).drop   # within group
        assert not m.message_fate(0, 2, 4.9, rng).drop   # before
        assert not m.message_fate(0, 2, 15.0, rng).drop  # healed (half-open)
        assert m.heals_at == 15.0

    def test_unlisted_processes_are_singletons(self):
        m = PartitionFault([(0, 1)], start=0.0, duration=10.0)
        rng = random.Random(0)
        assert m.message_fate(4, 5, 1.0, rng).drop
        assert m.message_fate(0, 4, 1.0, rng).drop

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionFault([(0, 1), (1, 2)], start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            PartitionFault([(0,)], start=0.0, duration=0.0)


class TestCrashSchedule:
    def test_process_up_timeline(self):
        m = CrashSchedule({2: [(3.0, 8.0)]})
        assert m.process_up(2, 2.9)
        assert not m.process_up(2, 3.0)
        assert not m.process_up(2, 7.9)
        assert m.process_up(2, 8.0)
        assert m.process_up(0, 5.0)

    def test_crash_stop_never_recovers(self):
        m = CrashSchedule({1: [(4.0, NEVER)]})
        assert not m.process_up(1, 1e9)
        assert m.liveness_transitions() == [(4.0, 1, False)]

    def test_transitions_sorted(self):
        m = CrashSchedule({0: [(6.0, 7.0)], 1: [(2.0, 9.0)]})
        assert m.liveness_transitions() == [
            (2.0, 1, False), (6.0, 0, False), (7.0, 0, True), (9.0, 1, True),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule({0: [(5.0, 5.0)]})
        with pytest.raises(ValueError):
            CrashSchedule({0: [(1.0, 4.0), (3.0, 6.0)]})


class TestComposite:
    def test_drop_wins_and_copies_max(self):
        dup = DuplicationFault(rate=1.0, copies=4)
        cut = PartitionFault([(0,), (1,)], start=0.0, duration=math.inf)
        rng = random.Random(0)
        assert CompositeFault([dup, cut]).message_fate(0, 1, 1.0, rng).drop
        weaker = DuplicationFault(rate=1.0, copies=2)
        fate = CompositeFault([weaker, dup]).message_fate(0, 1, 1.0, rng)
        assert fate.copies == 4

    def test_liveness_is_conjunction(self):
        a = CrashSchedule({0: [(1.0, 2.0)]})
        b = CrashSchedule({0: [(5.0, 6.0)]})
        m = CompositeFault([a, b])
        assert not m.process_up(0, 1.5)
        assert not m.process_up(0, 5.5)
        assert m.process_up(0, 3.0)
        assert len(m.liveness_transitions()) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CompositeFault([])


# ----------------------------------------------------------------------
def run_sim(fault, n=6, seed=2, events=15, **kw):
    g = generators.star(n)
    sim = Simulation(
        g,
        seed=seed,
        clocks={"inline": StarInlineClock(n), "vector": VectorClock(n)},
        fault_model=fault,
        **kw,
    )
    return sim.run(UniformWorkload(events_per_process=events, p_local=0.2))


class TestCrashIntegration:
    def test_down_process_performs_no_events(self):
        res = run_sim(CrashSchedule({3: [(2.0, NEVER)]}))
        assert res.suppressed_events > 0
        late = [e for e in res.execution.events_at(3)
                if res.event_times[e.eid] >= 2.0]
        assert late == []

    def test_inflight_deliveries_to_crashed_process_drop(self):
        res = run_sim(CrashSchedule({0: [(3.0, 9.0)]}), seed=4)
        assert res.crash_dropped_app_messages > 0

    def test_checkpoints_taken_at_crash_instants(self):
        res = run_sim(CrashSchedule({1: [(4.0, 11.0)], 2: [(6.0, NEVER)]}))
        assert [t for t, _ in res.crash_checkpoints] == [4.0, 6.0]
        for _, snap in res.crash_checkpoints:
            assert set(snap) == {"inline", "vector"}

    def test_causality_survives_crash_recovery(self):
        for seed in range(3):
            res = run_sim(CrashSchedule({2: [(3.0, 8.0)]}), seed=seed)
            oracle = HappenedBeforeOracle(res.execution)
            for name in ("inline", "vector"):
                assert res.assignments[name].validate(oracle).characterizes

    def test_checkpoint_restore_preserves_finalized_timestamps(self):
        """The permanence invariant: every timestamp final at crash time
        reads back unchanged from the restored snapshot."""
        res = run_sim(CrashSchedule({4: [(6.0, NEVER)]}), seed=5)
        (crash_time, snap), = res.crash_checkpoints
        fresh = StarInlineClock(6)
        fresh.restore(snap["inline"])
        fin = res.finalization_times["inline"]
        final = res.assignments["inline"]
        checked = 0
        for eid, t in fin.items():
            if t <= crash_time:
                assert fresh.timestamp(eid) == final[eid]
                checked += 1
        assert checked > 0


class TestCheckpointRestore:
    def test_snapshot_is_insulated_from_later_mutation(self):
        from repro.core import ExecutionBuilder

        b = ExecutionBuilder(3)
        clock = VectorClock(3)
        ev = b.local(0)
        clock.on_local(ev)
        snap = clock.checkpoint()
        clock.on_local(b.local(0))
        clock.on_local(b.local(1))
        other = VectorClock(3)
        other.restore(snap)
        assert other.timestamp(ev.eid) == clock.timestamp(ev.eid)
        assert other.checkpoint() == snap

    def test_restore_does_not_consume_snapshot(self):
        from repro.core import ExecutionBuilder

        b = ExecutionBuilder(4)
        clock = StarInlineClock(4)
        clock.on_local(b.local(1))
        snap = clock.checkpoint()
        clock.restore(snap)
        clock.on_local(b.local(1))
        clock.restore(snap)  # snapshot still valid after a prior restore
        assert clock.checkpoint() == snap


class TestConstructionGuards:
    def test_sk_requires_fifo_channels(self):
        g = generators.star(4)
        with pytest.raises(ValueError, match="FIFO"):
            Simulation(g, clocks={"sk": SKVectorClock(4)})

    def test_sk_rejects_app_loss(self):
        g = generators.star(4)
        with pytest.raises(ValueError, match="loss-free"):
            Simulation(g, clocks={"sk": SKVectorClock(4)},
                       fifo_app_channels=True, app_loss_rate=0.1)

    def test_sk_rejects_app_disrupting_fault_model(self):
        g = generators.star(4)
        with pytest.raises(ValueError, match="loss-free"):
            Simulation(g, clocks={"sk": SKVectorClock(4)},
                       fifo_app_channels=True,
                       fault_model=GilbertElliottLoss())

    def test_sk_allows_control_scoped_faults_with_warning_free_config(self):
        g = generators.star(4)
        Simulation(g, clocks={"sk": SKVectorClock(4)},
                   fifo_app_channels=True,
                   fault_model=GilbertElliottLoss(scope="control"))

    def test_sk_warns_on_control_loss(self):
        g = generators.star(4)
        with pytest.warns(UserWarning):
            Simulation(g, clocks={"sk": SKVectorClock(4)},
                       fifo_app_channels=True, control_loss_rate=0.2)

    def test_retry_requires_eager_transport(self):
        g = generators.star(4)
        with pytest.raises(ValueError, match="EAGER"):
            Simulation(g, clocks={"v": VectorClock(4)},
                       control_transport=ControlTransport.PIGGYBACK,
                       control_retry=RetryPolicy())
