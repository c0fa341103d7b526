"""Tests for workload policies (driven through real simulations)."""

import pytest

from repro.core.events import EventKind
from repro.sim import (
    BroadcastWorkload,
    ClientServerWorkload,
    Simulation,
    UniformWorkload,
)
from repro.topology import generators


class TestUniformWorkload:
    def test_event_budget_respected(self):
        g = generators.star(4)
        res = Simulation(g, seed=1).run(UniformWorkload(events_per_process=5))
        ex = res.execution
        for p in range(4):
            initiated = sum(
                1 for ev in ex.events_at(p) if not ev.is_receive
            )
            assert initiated == 5

    def test_pure_local(self):
        g = generators.star(3)
        res = Simulation(g, seed=2).run(
            UniformWorkload(events_per_process=4, p_local=1.0)
        )
        assert len(res.execution.messages) == 0
        assert res.execution.n_events == 12

    def test_deterministic_under_seed(self):
        g = generators.cycle(5)
        wl = lambda: UniformWorkload(events_per_process=10)
        r1 = Simulation(g, seed=42).run(wl())
        r2 = Simulation(g, seed=42).run(wl())
        assert [str(e) for e in r1.execution.all_events()] == [
            str(e) for e in r2.execution.all_events()
        ]

    def test_different_seeds_differ(self):
        g = generators.cycle(5)
        r1 = Simulation(g, seed=1).run(UniformWorkload(events_per_process=10))
        r2 = Simulation(g, seed=2).run(UniformWorkload(events_per_process=10))
        assert [str(e) for e in r1.execution.all_events()] != [
            str(e) for e in r2.execution.all_events()
        ]

    def test_neighbourhoods_are_sorted_once_not_per_action(self, monkeypatch):
        g = generators.star(6)
        lookups = []
        real = type(g).neighbors

        def counting(graph, u):
            lookups.append(u)
            return real(graph, u)

        monkeypatch.setattr(type(g), "neighbors", counting)
        Simulation(g, seed=3).run(UniformWorkload(events_per_process=20))
        assert sorted(lookups) == list(g.vertices())

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformWorkload(events_per_process=-1)
        with pytest.raises(ValueError):
            UniformWorkload(rate=0)
        with pytest.raises(ValueError):
            UniformWorkload(p_local=1.5)


class TestClientServerWorkload:
    def test_servers_default_to_cover(self):
        g = generators.star(5)
        res = Simulation(g, seed=3).run(
            ClientServerWorkload(requests_per_client=4)
        )
        # all requests go to the hub
        for msg in res.execution.messages:
            assert 0 in (msg.src, msg.dst)

    def test_replies_generated(self):
        g = generators.star(4)
        res = Simulation(g, seed=4).run(
            ClientServerWorkload(requests_per_client=5, reply_prob=1.0)
        )
        outgoing = sum(1 for m in res.execution.messages if m.src == 0)
        incoming = sum(1 for m in res.execution.messages if m.dst == 0)
        assert outgoing == incoming  # one reply per request

    def test_no_replies(self):
        g = generators.star(4)
        res = Simulation(g, seed=5).run(
            ClientServerWorkload(requests_per_client=5, reply_prob=0.0)
        )
        assert sum(1 for m in res.execution.messages if m.src == 0) == 0


class TestBroadcastWorkload:
    def test_flood_reaches_everyone(self):
        g = generators.cycle(6)
        res = Simulation(g, seed=6).run(BroadcastWorkload())
        # every process other than the initiator receives at least once
        for p in range(1, 6):
            kinds = [ev.kind for ev in res.execution.events_at(p)]
            assert EventKind.RECEIVE in kinds

    def test_multiple_rounds(self):
        g = generators.star(4)
        res1 = Simulation(g, seed=7).run(BroadcastWorkload(rounds=1))
        res2 = Simulation(g, seed=7).run(BroadcastWorkload(rounds=2))
        assert res2.execution.n_events > res1.execution.n_events


@pytest.mark.parametrize("workload", [UniformWorkload, ClientServerWorkload])
@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_non_finite_rates_are_refused(workload, rate):
    # refused at construction: a NaN would surface as "cannot schedule at
    # nan" once the run started, an infinite rate would schedule every
    # action at once
    with pytest.raises(ValueError, match="rate"):
        workload(rate=rate)
