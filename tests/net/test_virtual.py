"""The live roles on :class:`~repro.net.virtual.VirtualLoop`.

The loop itself (a stall raises, a connect nobody listens for is refused, a
closed end reads EOF), and what it buys the store: a run is a function of its
input, faults and crashes included, and a timeout costs no wall time.
"""

import asyncio
import time

import pytest

from repro.applications.causal_kv import StoreConfig
from repro.clocks import VectorClock
from repro.faults import GilbertElliottLoss
from repro.net import (
    AddressBook,
    ClusterSpec,
    CrashPlan,
    Supervisor,
    TransportPolicy,
    make_node,
    run_virtual,
)
from repro.net import loadgen
from repro.net.loadgen import deploy


def store_config(**kw):
    return StoreConfig(**{
        "n_sequencers": 2, "n_servers": 2, "n_clients": 3, "n_keys": 4,
        "ops_per_client": 5, "write_fraction": 0.6, "seed": 11, **kw,
    })


class TestLoop:
    def test_nothing_ready_and_no_timer_raises_instead_of_hanging(self):
        with pytest.raises(RuntimeError, match="stalled"):
            run_virtual(asyncio.Event().wait())

    def test_a_timer_costs_no_wall_time(self):
        async def go():
            loop = asyncio.get_running_loop()
            await asyncio.sleep(3600)
            return loop.time()

        started = time.perf_counter()
        assert run_virtual(go()) == 3600
        assert time.perf_counter() - started < 0.5

    def test_connect_to_a_stopped_server_is_refused(self):
        async def go():
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            address = server.sockets[0].getsockname()
            server.close()
            await server.wait_closed()
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection(*address)

        run_virtual(go())

    def test_reader_sees_the_bytes_then_eof_after_the_peer_closes(self):
        async def go():
            def serve(_reader, writer):
                writer.write(b"last words")
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                *server.sockets[0].getsockname()
            )
            assert await reader.read() == b"last words"  # read() stops at EOF
            assert reader.at_eof()
            writer.close()
            server.close()

        run_virtual(go())


def store_run(faults):
    """Operations, writes, frames, events and timestamps of one run."""
    run = run_virtual(deploy(
        store_config(),
        "inline-cover",
        fault_model=GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.95)
        if faults else None,
        crash_plan=CrashPlan(pid=0, after_ops=4, downtime=0.2) if faults else None,
        policy=TransportPolicy(request_timeout=0.2, max_retries=5, seed=11),
    ))
    host = run.clock_host
    events = list(host.execution().all_events())
    return run.report, (
        run.operations,
        run.writes,
        run.report.counters["net.frames_sent"],
        events,
        [host.clock.timestamp(ev.eid) for ev in events],
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "faults, frames, events, counters",
        [
            (False, 107, 192, {"net.crashes": 0, "net.drops_injected": 0}),
            # the crash lands mid-run: 6 of 15 operations done at t = 0.22
            (True, 120, 198, {
                "net.crashes": 1, "net.restarts": 1,
                "net.drops_injected": 5, "net.retransmits": 7,
            }),
        ],
        ids=["fault-free", "crash+loss"],
    )
    def test_a_run_is_a_function_of_its_input(self, faults, frames, events, counters):
        report, first = store_run(faults)
        assert store_run(faults)[1] == first
        assert report.ok
        assert report.lost_acked_writes == 0 and report.checkpoint_problems == []
        assert report.counters["net.frames_sent"] == frames
        assert report.clock_stats["events"] == events
        assert {name: report.counters[name] for name in counters} == counters


class ImpermanentClock(VectorClock):
    """Breaks permanence at termination: each process's first timestamp,
    final since it was stamped, becomes that process's last one."""

    def finalize_at_termination(self):
        for row in self._stamps:
            if row:
                row[0] = row[-1]
        return []


class TestCrashAudit:
    def test_a_timestamp_rewritten_after_the_crash_fails_the_audit(self, monkeypatch):
        monkeypatch.setattr(
            loadgen, "build_live_clock", lambda _name, spec: ImpermanentClock(spec.n_processes)
        )
        run = run_virtual(deploy(
            store_config(),
            "vector",
            crash_plan=CrashPlan(pid=0, after_ops=4, downtime=0.2),
            policy=TransportPolicy(request_timeout=0.2, max_retries=5, seed=11),
        ))
        report = run.report
        assert report.counters["net.crashes"] == 1
        assert report.checkpoint_problems and not report.ok
        assert all("timestamp changed" in p for p in report.checkpoint_problems)


class TestSlowSequencerFailover:
    def test_clients_fail_over_past_a_degraded_sequencer(self):
        spec, book = ClusterSpec(store_config(n_servers=1, n_clients=1)), AddressBook()
        policy = TransportPolicy(request_timeout=0.15, max_retries=0, jitter=0.0)
        supervisor = Supervisor()
        for pid in range(spec.n_processes):
            supervisor.register(pid, lambda p=pid: make_node(p, spec, book, policy))
        client = spec.clients[0]

        async def go():
            await supervisor.start_all()
            supervisor.set_slow(spec.home(client), 2.0)  # past the retry budget
            try:
                await supervisor.nodes[client].run_session()
            finally:
                await supervisor.stop_all()

        started = time.perf_counter()
        run_virtual(go())
        assert time.perf_counter() - started < 0.5
        # every operation waits out one attempt on the slow home, then fails over
        node = supervisor.nodes[client]
        assert node.failovers == 5
        assert node.latencies_ms == pytest.approx([150.0] * 5)
