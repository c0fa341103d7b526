"""Tests for the reliable control transport (acks + retransmission)."""

import random

import pytest

from repro.clocks import StarInlineClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.faults import DuplicationFault, GilbertElliottLoss
from repro.sim import (
    ControlTransport,
    ReliableLink,
    RetryPolicy,
    Simulation,
    UniformWorkload,
)
from repro.sim.scheduler import EventScheduler
from repro.topology import generators


class ScriptedService:
    """Datagram service with a scripted per-send drop plan (True = drop)."""

    def __init__(self, scheduler, drop_plan=(), copies_plan=()):
        self.scheduler = scheduler
        self.drop_plan = list(drop_plan)
        self.copies_plan = list(copies_plan)
        self.log = []

    def __call__(self, src, dst, deliver, *args, kind):
        self.log.append((src, dst, kind))
        drop = self.drop_plan.pop(0) if self.drop_plan else False
        copies = self.copies_plan.pop(0) if self.copies_plan else 1
        if drop:
            return
        for _ in range(copies):
            self.scheduler.after(1.0, deliver, *args)


def make_link(drop_plan=(), copies_plan=(), policy=None):
    sched = EventScheduler()
    svc = ScriptedService(sched, drop_plan, copies_plan)
    link = ReliableLink(sched, policy or RetryPolicy(timeout=4.0), svc)
    return sched, svc, link


class TestReliableLink:
    """At least once: every copy that arrives is delivered and acked, and
    every send ends acknowledged or abandoned.  Refusing a second copy is
    the clock's job, not the link's."""

    def test_lossless_delivers_once_no_retransmission(self):
        sched, svc, link = make_link()
        got = []
        link.send(0, 1, lambda: got.append(sched.now))
        sched.run()
        assert got == [1.0]
        assert link.stats.retransmissions == 0
        assert link.stats.acks_received == 1
        assert link.stats.acks_received + link.stats.abandoned == 1

    def test_lost_data_is_retransmitted(self):
        sched, svc, link = make_link(drop_plan=[True])
        got = []
        link.send(0, 1, lambda: got.append(sched.now))
        sched.run()
        assert len(got) == 1
        assert link.stats.retransmissions == 1
        assert link.stats.acks_received + link.stats.abandoned == 1

    def test_lost_ack_causes_a_delivered_duplicate(self):
        # plan: data ok, ack dropped, retransmitted data ok, ack ok
        sched, svc, link = make_link(drop_plan=[False, True])
        got = []
        link.send(0, 1, lambda: got.append(sched.now))
        sched.run()
        assert got == [1.0, 5.0], "the retransmitted copy is delivered too"
        assert link.stats.retransmissions == 1
        assert link.stats.acks_received == 1
        assert [kind for _s, _d, kind in svc.log] == ["data", "ack", "data", "ack"]

    def test_gives_up_after_max_retries(self):
        policy = RetryPolicy(timeout=1.0, max_retries=2)
        sched, svc, link = make_link(drop_plan=[True] * 10, policy=policy)
        got = []
        link.send(0, 1, got.append)
        sched.run()
        assert got == []
        assert len(svc.log) == 3  # original + 2 retries
        assert link.stats.retransmissions == 2
        assert link.stats.abandoned == 1
        assert link.stats.acks_received + link.stats.abandoned == 1

    def test_duplicated_datagrams_acked_per_copy(self):
        sched, svc, link = make_link(copies_plan=[3])
        got = []
        link.send(0, 1, lambda: got.append(1))
        sched.run()
        assert got == [1, 1, 1]
        # every copy is acked so a lost first ack cannot strand the sender
        acks = [entry for entry in svc.log if entry[2] == "ack"]
        assert len(acks) == 3
        assert link.stats.acks_received == 1

    def test_backoff_grows_retry_gaps(self):
        policy = RetryPolicy(timeout=1.0, backoff=2.0, max_retries=3)
        sched = EventScheduler()
        times = []

        def svc(src, dst, deliver, *args, kind):
            times.append(sched.now)  # never deliver

        link = ReliableLink(sched, policy, svc)
        link.send(0, 1, lambda: None)
        sched.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == [1.0, 2.0, 4.0]

    def test_every_send_on_every_channel_is_acked(self):
        sched, svc, link = make_link()
        got = []
        link.send(0, 1, lambda: got.append("a"))
        link.send(1, 0, lambda: got.append("b"))
        link.send(0, 2, lambda: got.append("c"))
        link.send(0, 1, lambda: got.append("d"))
        sched.run()
        assert sorted(got) == ["a", "b", "c", "d"]
        assert link.stats.acks_received == 4
        assert [(s, d) for s, d, kind in svc.log if kind == "ack"] == [
            (1, 0), (0, 1), (2, 0), (1, 0)
        ]


class TestRetryPolicy:
    def test_delay_schedule(self):
        p = RetryPolicy(timeout=2.0, backoff=1.5)
        assert p.retry_delay(0) == 2.0
        assert p.retry_delay(2) == pytest.approx(2.0 * 1.5**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    @pytest.mark.parametrize("field", ["timeout", "backoff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_are_refused(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(**{field: value})


# ----------------------------------------------------------------------
def run_sim(n=6, seed=3, events=20, **kw):
    g = generators.star(n)
    sim = Simulation(
        g,
        seed=seed,
        clocks={"inline": StarInlineClock(n), "vector": VectorClock(n)},
        **kw,
    )
    return sim.run(UniformWorkload(events_per_process=events, p_local=0.2))


class TestSimulationIntegration:
    def test_meets_95_percent_criterion_under_10pct_control_loss(self):
        res = run_sim(control_loss_rate=0.1, control_retry=RetryPolicy())
        assert res.fraction_finalized_during_run("inline") >= 0.95
        assert res.stats["inline"].control_retransmissions > 0
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["inline"].validate(oracle).characterizes

    def test_reliable_beats_fire_and_forget_under_burst_loss(self):
        fault = GilbertElliottLoss(p_enter_burst=0.15, p_exit_burst=0.35,
                                   scope="control")
        raw = run_sim(fault_model=fault)
        rel = run_sim(fault_model=fault, control_retry=RetryPolicy())
        assert (rel.fraction_finalized_during_run("inline")
                > raw.fraction_finalized_during_run("inline"))
        for res in (raw, rel):
            oracle = HappenedBeforeOracle(res.execution)
            assert res.assignments["inline"].validate(oracle).characterizes

    @pytest.mark.parametrize("retry, controls", [
        (None, 80),
        (RetryPolicy(), 77),
    ], ids=["fire-and-forget", "reliable"])
    def test_duplicated_control_datagrams_do_not_corrupt_inline_clocks(
        self, retry, controls
    ):
        """Both transports deliver every control copy that survives; the
        inline clock refuses each second copy by its control ``seq``, so
        the clock's refusal is load-bearing, and counted exactly."""
        fault = DuplicationFault(rate=0.5, copies=3, scope="control")
        res = run_sim(fault_model=fault, control_retry=retry)
        assert res.stats["inline"].control_duplicates_suppressed > 0
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["inline"].validate(oracle).characterizes
        # every control arrives twice: one copy applied, one refused
        fault = DuplicationFault(rate=1.0, copies=2, scope="control")
        res = run_sim(fault_model=fault, control_retry=retry)
        stats = res.stats["inline"]
        assert stats.control_messages == controls
        assert stats.control_duplicates_suppressed == controls
        if retry is not None:
            assert stats.control_acks == controls
            assert stats.control_retransmissions == 0
        assert res.assignments["inline"].validate(
            HappenedBeforeOracle(res.execution)
        ).characterizes

    def test_abandoned_messages_recovered_by_termination_flush(self):
        res = run_sim(
            control_loss_rate=0.6,
            control_retry=RetryPolicy(timeout=1.0, max_retries=0),
            seed=9,
        )
        assert res.stats["inline"].control_abandoned > 0
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["inline"].validate(oracle).characterizes

    def test_no_retransmissions_on_lossless_network(self):
        res = run_sim(control_retry=RetryPolicy())
        stats = res.stats["inline"]
        assert stats.control_retransmissions == 0
        assert stats.control_abandoned == 0
        assert stats.control_acks == stats.control_messages


class TestPiggybackRetention:
    def test_dropped_carrier_requeues_piggybacked_controls(self):
        """Regression: piggybacked control messages used to vanish with a
        dropped carrier message; they must be retained for the next one."""
        res = run_sim(
            app_loss_rate=0.35,
            seed=5,
            control_transport=ControlTransport.PIGGYBACK,
        )
        assert res.piggyback_controls_retained > 0
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["inline"].validate(oracle).characterizes

    def test_retention_counter_zero_without_loss(self):
        res = run_sim(control_transport=ControlTransport.PIGGYBACK)
        assert res.piggyback_controls_retained == 0
