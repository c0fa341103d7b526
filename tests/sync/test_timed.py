"""Tests for the timed synchronous (rendezvous) simulator."""

import pytest

from repro.sync.component_clock import ComponentSyncClock, timestamp_mismatches
from repro.sync.timed import simulate_sync
from repro.topology import generators


def participants(res, joint):
    """The processes of a joint event: its initiator and, for a message,
    the partner its first event was sent to."""
    first, last = joint
    if first == last:
        return (first.proc,)
    return (first.proc, res.execution.event(first).peer)


class TestTimedSimulation:
    def test_all_actions_execute(self):
        g = generators.star(5)
        res = simulate_sync(g, actions_per_process=10, seed=1)
        # every action is one joint event; a message is four asynchronous
        # events and an internal action one
        assert len(res.joints) == 5 * 10
        n_messages = sum(first != last for first, last in res.joints)
        assert res.execution.n_events == 5 * 10 + 3 * n_messages

    def test_deterministic(self):
        g = generators.cycle(5)
        r1 = simulate_sync(g, seed=3)
        r2 = simulate_sync(g, seed=3)
        assert r1.event_times == r2.event_times
        assert r1.finalization_times == r2.finalization_times

    def test_event_times_monotone_per_process(self):
        g = generators.double_star(2, 2)
        res = simulate_sync(g, seed=2)
        for p in range(g.n_vertices):
            times = [
                res.event_times[uid]
                for uid, joint in enumerate(res.joints)
                if p in participants(res, joint)
            ]
            assert times == sorted(times)

    def test_rendezvous_blocks_both_endpoints(self):
        """A message's completion time is at least both endpoints' prior
        completion times plus the handshake."""
        g = generators.star(4)
        res = simulate_sync(g, seed=5)
        last: dict = {}
        for uid in sorted(range(len(res.joints)), key=res.event_times.get):
            t = res.event_times[uid]
            procs = participants(res, res.joints[uid])
            if len(procs) == 2:
                for p in procs:
                    if p in last:
                        assert t >= last[p] + 1.0 - 1e-9
            for p in procs:
                last[p] = t

    def test_finalization_never_before_event(self):
        g = generators.star(6)
        res = simulate_sync(g, seed=7)
        for uid, lat in res.finalization_latencies().items():
            assert lat >= 0

    def test_component_clock_correct_under_timing(self):
        g = generators.double_star(2, 2)
        res = simulate_sync(g, seed=4, actions_per_process=12)
        clock = ComponentSyncClock(res.decomposition)
        clock.replay(res.execution, res.joints)
        clock.finalize_at_termination()
        assert timestamp_mismatches(clock, res.execution, res.joints) == []

    def test_chatty_runs_finalize_more(self):
        g = generators.star(6)
        chatty = simulate_sync(g, seed=9, p_internal=0.1)
        quiet = simulate_sync(g, seed=9, p_internal=0.9)
        assert (
            chatty.fraction_finalized_during_run()
            >= quiet.fraction_finalized_during_run()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_sync(generators.star(3), actions_per_process=-1)
