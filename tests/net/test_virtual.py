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
    TransportError,
    TransportPolicy,
    make_node,
    run_virtual,
)
from repro.net import loadgen
from repro.net.loadgen import deploy
from repro.obs.metrics import MetricsRegistry, use_registry


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

    @pytest.mark.parametrize("keep_open", [None, True], ids=["falsy", "true"])
    def test_eof_received_decides_whether_the_end_closes(self, keep_open):
        """asyncio's own transports close an end whose protocol answers EOF
        with a falsy value, and keep a half-open one that answers true."""

        class Probe(asyncio.Protocol):
            transport = None
            lost = False

            def connection_made(self, transport):
                self.transport = transport

            def eof_received(self):
                return keep_open

            def connection_lost(self, exc):
                self.lost = True

        async def go():
            loop = asyncio.get_running_loop()
            far = Probe()
            server = await loop.create_server(lambda: far, "127.0.0.1", 0)
            near, probe = await loop.create_connection(
                Probe, *server.sockets[0].getsockname()
            )
            await asyncio.sleep(0)  # the far end's connection_made
            far.transport.close()
            for _ in range(3):
                await asyncio.sleep(0)
            seen = probe.lost, near.is_closing()
            near.write(b"still writable?")  # never raises, closed or not
            near.close()
            server.close()
            return seen

        closed = not keep_open
        assert run_virtual(go()) == (closed, closed)

    def test_an_end_closed_here_gets_no_bytes_already_in_flight(self):
        """asyncio's socket transports stop reading at ``close()``: a write
        from the far end that has not arrived when the near end closes is
        never handed to the near end's protocol."""

        class Probe(asyncio.Protocol):
            transport = None

            def __init__(self):
                self.received = []

            def connection_made(self, transport):
                self.transport = transport

            def data_received(self, data):
                self.received.append(data)

        async def go():
            loop = asyncio.get_running_loop()
            far = Probe()
            server = await loop.create_server(lambda: far, "127.0.0.1", 0)
            near, probe = await loop.create_connection(
                Probe, *server.sockets[0].getsockname()
            )
            await asyncio.sleep(0)  # the far end's connection_made
            far.transport.write(b"early")
            await asyncio.sleep(0)
            far.transport.write(b"late")  # in flight when the near end closes
            near.close()
            for _ in range(3):
                await asyncio.sleep(0)
            server.close()
            return probe.received

        assert run_virtual(go()) == [b"early"]

    def test_an_end_closed_here_gets_no_eof_already_in_flight(self):
        """Nor does an EOF: the far end closes, and the near end closes
        before that EOF lands, so the near protocol sees only
        ``connection_lost``."""

        class Probe(asyncio.Protocol):
            transport = None

            def __init__(self):
                self.calls = []

            def connection_made(self, transport):
                self.transport = transport

            def eof_received(self):
                self.calls.append("eof")

            def connection_lost(self, exc):
                self.calls.append("lost")

        async def go():
            loop = asyncio.get_running_loop()
            far = Probe()
            server = await loop.create_server(lambda: far, "127.0.0.1", 0)
            near, probe = await loop.create_connection(
                Probe, *server.sockets[0].getsockname()
            )
            await asyncio.sleep(0)  # the far end's connection_made
            far.transport.close()  # its EOF is in flight to the near end
            near.close()
            for _ in range(3):
                await asyncio.sleep(0)
            server.close()
            return probe.calls, far.calls

        assert run_virtual(go()) == (["lost"], ["lost"])


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
            # the crash lands mid-run: 7 of 15 operations done at t = 0.01
            (True, 123, 204, {
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


def lone_server():
    """The one server of a deployment with one: a commit it takes has no
    replica to go to."""
    spec = ClusterSpec(store_config(n_servers=1))
    return make_node(spec.servers[0], spec, AddressBook())


def read(deps):
    return {"key": "k0", "deps": deps}


REPL = {"key": "k0", "version": 1, "deps": {}, "writer": 4, "wsi": 0}
COMMIT = {"key": "k0", "deps": {}, "client": 4, "wsi": 0, "orid": "c4-0"}


class TestReadGuard:
    """A server holds a read until its replica meets the read's
    dependencies; one that already does is answered at once."""

    def test_a_read_whose_dependencies_are_met_never_suspends(self):
        """Its first step returns the response: no task, timer or future
        is made for it, and the ``Condition`` is not touched."""
        node = lone_server()
        node._applied = None  # any use of the Condition raises
        with pytest.raises(StopIteration):
            node._handle_repl(REPL).send(None)  # no read waits: no notify
        with pytest.raises(StopIteration) as done:
            node._handle_read(read({"k0": 1})).send(None)
        assert done.value.value["version"] == 1
        with pytest.raises(StopIteration):
            node._handle_read(read({})).send(None)

    @pytest.mark.parametrize("apply", ["repl", "commit"])
    def test_an_unmet_read_is_woken_by_the_apply_that_meets_it(self, apply):
        node = lone_server()

        async def go():
            waiting = asyncio.ensure_future(node._handle_read(read({"k0": 1})))
            await asyncio.sleep(1.0)
            assert not waiting.done() and node._reads_waiting == 1
            if apply == "repl":
                await node._handle_repl(REPL)
            else:
                await node._handle_commit(COMMIT)
            response = await waiting
            return response, asyncio.get_running_loop().time()

        response, woken_at = run_virtual(go())
        assert response["version"] == 1
        assert woken_at == 1.0  # at the apply, not at a timer
        assert node._reads_waiting == 0

    def test_a_read_never_met_times_out_and_is_counted(self):
        with use_registry(MetricsRegistry()) as registry:
            node = lone_server()
            node.read_guard_timeout = 0.5

            async def go():
                with pytest.raises(TransportError, match="read guard timed out"):
                    await node._handle_read(read({"k0": 1}))
                return asyncio.get_running_loop().time()

            assert run_virtual(go()) == 0.5
        assert registry.counter_value("net.read_guard_timeouts") == 1
        assert registry.counter_value("net.reads_served") == 0
        assert node._reads_waiting == 0


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
            # past the retry budget
            supervisor.nodes[spec.attached(client)[0]].response_delay = 2.0
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
