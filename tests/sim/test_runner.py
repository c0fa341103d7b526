"""Tests for the simulation runner: clocks, control transport, timing."""

import pytest

from repro.clocks import CoverInlineClock, StarInlineClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.sim import (
    ControlTransport,
    Simulation,
    UniformWorkload,
)
from repro.topology import generators


def star_sim(seed=0, transport=ControlTransport.EAGER, **kw):
    g = generators.star(5)
    return Simulation(
        g,
        seed=seed,
        clocks={
            "inline": StarInlineClock(5),
            "vector": VectorClock(5),
        },
        control_transport=transport,
        **kw,
    )


class TestBasicRuns:
    def test_assignments_cover_all_events(self):
        res = star_sim().run(UniformWorkload(events_per_process=10))
        for name in ("inline", "vector"):
            assert len(res.assignments[name]) == res.execution.n_events

    def test_single_use(self):
        sim = star_sim(online_oracle=True)
        assert sim.oracle is None  # readable before run(), not an error
        sim.run(UniformWorkload(events_per_process=2))
        with pytest.raises(RuntimeError):
            sim.run(UniformWorkload(events_per_process=2))

    def test_handle_surface_before_run_says_so(self):
        sim = star_sim()
        with pytest.raises(RuntimeError, match="has not started"):
            sim.now
        with pytest.raises(RuntimeError, match="has not started"):
            sim.rng
        with pytest.raises(RuntimeError, match="has not started"):
            sim.schedule(1.0, lambda: None)
        assert sim.graph.n_vertices == 5  # configuration stays readable

    def test_clock_size_mismatch_rejected(self):
        g = generators.star(4)
        with pytest.raises(ValueError):
            Simulation(g, clocks={"vc": VectorClock(7)})
        with pytest.raises(TypeError):  # one recorder: nothing to select
            Simulation(g, event_store="columnar")

    def test_event_times_recorded(self):
        res = star_sim().run(UniformWorkload(events_per_process=5))
        assert len(res.event_times) == res.execution.n_events
        assert all(t >= 0 for t in res.event_times.values())
        assert res.duration >= max(res.event_times.values())

    def test_correctness_under_simulation(self):
        res = star_sim(seed=11).run(UniformWorkload(events_per_process=15))
        oracle = HappenedBeforeOracle(res.execution)
        for name in ("inline", "vector"):
            assert res.assignments[name].validate(oracle).characterizes


class TestFinalizationTiming:
    def test_online_clock_finalizes_at_event_time(self):
        res = star_sim().run(UniformWorkload(events_per_process=8))
        for eid, t_fin in res.finalization_times["vector"].items():
            assert t_fin == res.event_times[eid]

    def test_inline_latency_nonnegative(self):
        res = star_sim().run(UniformWorkload(events_per_process=8))
        for eid, lat in res.finalization_latencies("inline").items():
            assert lat >= 0
            if eid.proc == 0:  # centre events are immediate
                assert lat == 0

    def test_fraction_finalized(self):
        res = star_sim().run(
            UniformWorkload(events_per_process=12, p_local=0.2)
        )
        frac_inline = res.fraction_finalized_during_run("inline")
        frac_vector = res.fraction_finalized_during_run("vector")
        assert frac_vector == 1.0
        assert 0 < frac_inline <= 1.0


class TestControlTransports:
    def test_piggyback_correct_but_slower(self):
        res_eager = star_sim(seed=9).run(
            UniformWorkload(events_per_process=15, p_local=0.2)
        )
        res_piggy = star_sim(
            seed=9, transport=ControlTransport.PIGGYBACK
        ).run(UniformWorkload(events_per_process=15, p_local=0.2))

        oracle = HappenedBeforeOracle(res_piggy.execution)
        assert res_piggy.assignments["inline"].validate(oracle).characterizes
        # piggybacking finalizes no more events during the run than eager
        assert res_piggy.fraction_finalized_during_run(
            "inline"
        ) <= res_eager.fraction_finalized_during_run("inline")

    def test_eager_counts_control_messages(self):
        res = star_sim(seed=10).run(
            UniformWorkload(events_per_process=10, p_local=0.0)
        )
        stats = res.stats["inline"]
        # one control message per radial->centre application message
        to_centre = sum(1 for m in res.execution.messages if m.dst == 0)
        assert stats.control_messages == to_centre
        assert stats.control_elements == 3 * to_centre  # (seq, a, b)

    def test_vector_clock_has_no_controls(self):
        res = star_sim().run(UniformWorkload(events_per_process=5))
        assert res.stats["vector"].control_messages == 0

    def test_payload_elements_counted(self):
        res = star_sim().run(UniformWorkload(events_per_process=10, p_local=0.0))
        msgs = len(res.execution.messages)
        assert res.stats["vector"].app_payload_elements == 5 * msgs
        assert res.stats["inline"].app_payload_elements == 2 * msgs


class TestRunBounds:
    def test_max_time_truncates(self):
        sim = star_sim(seed=20)
        res = sim.run(UniformWorkload(events_per_process=30), max_time=5.0)
        assert res.duration <= 5.0
        assert all(t <= 5.0 for t in res.event_times.values())

    def test_max_steps_truncates(self):
        sim = star_sim(seed=21)
        res = sim.run(UniformWorkload(events_per_process=30), max_steps=10)
        assert res.execution.n_events <= 10

    def test_no_finalize_leaves_bottoms(self):
        sim = star_sim(seed=22)
        res = sim.run(
            UniformWorkload(events_per_process=10, p_local=0.9),
            finalize=False,
        )
        inline = res.assignments["inline"]
        # some purely local radial events never finalize without the
        # termination flush
        assert len(inline) < res.execution.n_events

    def test_truncated_run_still_valid(self):
        sim = star_sim(seed=23)
        res = sim.run(UniformWorkload(events_per_process=30), max_time=8.0)
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["vector"].validate(oracle).characterizes
        assert res.assignments["inline"].validate(oracle).characterizes


class TestCoverClockUnderSimulation:
    def test_general_graph(self):
        g = generators.double_star(2, 3)
        sim = Simulation(
            g, seed=3, clocks={"cover": CoverInlineClock(g)}
        )
        res = sim.run(UniformWorkload(events_per_process=12))
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["cover"].validate(oracle).characterizes
        assert res.assignments["cover"].max_elements() <= 2 * 2 + 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_piggyback_on_multi_cover_graph(self, seed):
        """Piggybacked controls with two cover hubs and non-FIFO channels:
        the per-(c,j) resequencing must keep everything exact."""
        g = generators.double_star(3, 3)
        sim = Simulation(
            g,
            seed=seed,
            clocks={"cover": CoverInlineClock(g, (0, 1))},
            control_transport=ControlTransport.PIGGYBACK,
        )
        res = sim.run(UniformWorkload(events_per_process=15, p_local=0.2))
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["cover"].validate(oracle).characterizes

    def test_piggyback_with_losses(self):
        g = generators.double_star(2, 2)
        sim = Simulation(
            g,
            seed=4,
            clocks={"cover": CoverInlineClock(g, (0, 1))},
            control_transport=ControlTransport.PIGGYBACK,
            app_loss_rate=0.2,
        )
        res = sim.run(UniformWorkload(events_per_process=12, p_local=0.2))
        oracle = HappenedBeforeOracle(res.execution)
        assert res.assignments["cover"].validate(oracle).characterizes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overhead_counts_are_exact(self, seed):
        """Each delivered message from outside the cover to inside it costs
        one 3-element acknowledgement; every application message carries
        ``|VC| + 2`` elements (sender id, counter, mpre)."""
        g = generators.double_star(2, 3)
        cover = (0, 1)
        sim = Simulation(g, seed=seed, clocks={"inline": CoverInlineClock(g, cover)})
        res = sim.run(UniformWorkload(events_per_process=15, p_local=0.2))
        controls = sum(
            1 for msg in res.execution.messages
            if msg.recv_event is not None and msg.src not in cover and msg.dst in cover
        )
        stats = res.stats["inline"]
        assert stats.control_messages == controls > 0
        assert stats.control_elements == 3 * controls
        assert stats.app_payload_elements == (len(cover) + 2) * res.app_messages
