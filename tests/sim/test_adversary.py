"""Tests for the timed slow-victim flood (Lemma 2.3's δD argument)."""

import pytest

from repro.sim.adversary import slow_victim_flood
from repro.topology import generators


class TestSlowVictimFlood:
    @pytest.mark.parametrize(
        "graph",
        [generators.cycle(6), generators.wheel(6), generators.clique(4)],
        ids=["cycle6", "wheel6", "clique4"],
    )
    def test_separation_holds(self, graph):
        timing = slow_victim_flood(graph, victim=1, delta=1.0)
        assert timing.separation_holds
        # every non-victim process completed
        others = set(graph.vertices()) - {1}
        assert set(timing.completion_times) == others

    def test_completion_within_delta_d(self):
        """The proof's bound: flooding among n-1 processes finishes by δD
        (plus negligible scheduling epsilons)."""
        g = generators.cycle(6)
        timing = slow_victim_flood(g, victim=0, delta=1.0)
        assert max(timing.completion_times.values()) <= timing.flood_bound + 0.1

    def test_victim_contact_after_bound(self):
        g = generators.cycle(6)
        timing = slow_victim_flood(g, victim=0, delta=1.0)
        assert timing.first_victim_contact is not None
        assert timing.first_victim_contact > 2 * timing.flood_bound

    def test_victim_out_of_range(self):
        with pytest.raises(ValueError):
            slow_victim_flood(generators.cycle(5), victim=9)

    def test_deterministic(self):
        g = generators.wheel(6)
        t1 = slow_victim_flood(g, victim=2)
        t2 = slow_victim_flood(g, victim=2)
        assert t1.completion_times == t2.completion_times


class TestSampledValidation:
    def test_sampled_agrees_with_exhaustive_on_exact_scheme(self):
        import random

        from repro.clocks import StarInlineClock, replay_one
        from repro.core.random_executions import random_execution

        g = generators.star(6)
        ex = random_execution(g, random.Random(1), steps=60)
        asg = replay_one(ex, StarInlineClock(6))
        exhaustive = asg.validate()
        sampled = asg.validate_sampled(n_pairs=2_000)
        assert exhaustive.characterizes
        assert sampled.characterizes

    def test_sampled_catches_lossy_scheme(self):
        import random

        from repro.clocks import LamportClock, replay_one
        from repro.core.random_executions import random_execution

        g = generators.clique(5)
        ex = random_execution(g, random.Random(2), steps=80)
        asg = replay_one(ex, LamportClock(5))
        sampled = asg.validate_sampled(n_pairs=5_000)
        assert sampled.is_consistent
        assert not sampled.characterizes
