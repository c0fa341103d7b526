"""Control messages ride application frames; nothing else carries them.

A sequencer's controls travel on the response to the request that caused
them, or on its next request to the process they are addressed to, and the
last one on an idle edge in one batched flush when the node quiesces.  These
tests pin the wire behaviour (which frame carries what, in which order it is
applied, what a lost or repeated frame does), the rejection of controls that
did not come from their own channel, the accounting counters, and that the
number of frames stays a function of the input.
"""

import asyncio
import contextlib
import functools
import json
from collections import defaultdict

import pytest

from repro.applications.causal_kv import StoreConfig
from repro.clocks.inline_cover import CoverInlineClock
from repro.faults.models import (
    CompositeFault,
    DuplicationFault,
    GilbertElliottLoss,
)
from repro.net import (
    AddressBook,
    ClusterSpec,
    CrashPlan,
    LiveClockHost,
    PeerClient,
    RequestTimeout,
    RpcServer,
    Supervisor,
    TransportError,
    TransportPolicy,
    loadgen,
    make_node,
    pack_payload,
    run_live_store,
    run_virtual,
    unpack_payload,
    virtual,
)
from repro.obs.metrics import MetricsRegistry, use_registry


def config(**kw):
    defaults = dict(
        n_sequencers=2,
        n_servers=3,
        n_clients=4,
        n_keys=4,
        ops_per_client=6,
        write_fraction=0.5,
        seed=7,
    )
    defaults.update(kw)
    return StoreConfig(**defaults)


class RecordingClock(CoverInlineClock):
    """The paper's clock, remembering every control it accepted, in the
    order it applied them — the n-th on a channel as ``(n, a, b)``, since
    the clock applies a channel's controls in seq order.  The termination
    flush is not a delivery: it is not recorded."""

    def __init__(self, *args):
        super().__init__(*args)
        self.applied = defaultdict(list)  # (src, dst) -> payloads, in order

    def _apply_control(self, c, j, a, b):
        if not self._terminated:
            applied = self.applied[(c, j)]
            applied.append((len(applied), a, b))
        super()._apply_control(c, j, a, b)


class RecordingHost(LiveClockHost):
    """Logs the hook calls and what ``deliver`` emitted, per channel."""

    def __init__(self, clock, spec):
        super().__init__(clock, spec)
        self.log = []
        self.emitted = defaultdict(list)  # (src, dst) -> payloads, in order

    def deliver(self, dst, src, env):
        self.log.append(("deliver", dst, src))
        controls = super().deliver(dst, src, env)
        for ctl in controls:
            self.emitted[(ctl["csrc"], ctl["cdst"])].append(
                unpack_payload(ctl["pl"])
            )
        return controls

    def control(self, src, dst, seq, packed):
        self.log.append(("control", src, dst, seq))
        super().control(src, dst, seq, packed)

    @property
    def n_emitted(self):
        return sum(len(v) for v in self.emitted.values())

    @property
    def n_applied(self):
        return sum(len(v) for v in self.clock.applied.values())

    @property
    def n_control_calls(self):
        return sum(1 for entry in self.log if entry[0] == "control")


@contextlib.asynccontextmanager
async def cluster(policy=None, **kw):
    """A started loopback cluster with a recording clock seam.

    Yields ``(spec, host, nodes, registry)``; node lifecycles are the
    test's to drive, whatever is still up is stopped on exit.
    """
    spec = ClusterSpec(config(**kw))
    registry = MetricsRegistry()
    with use_registry(registry):
        host = RecordingHost(
            RecordingClock(spec.graph, tuple(spec.sequencers)), spec
        )
        book = AddressBook()
        supervisor = Supervisor(host)
        for pid in range(spec.n_processes):
            supervisor.register(
                pid,
                lambda p=pid: make_node(p, spec, book, policy, None, host),
            )
        await supervisor.start_all()
        try:
            yield spec, host, supervisor.nodes, registry
        finally:
            await supervisor.stop_all()


def read_of(client, key="k0", orid="t-0"):
    return {
        "type": "op", "op": "r", "key": key, "client": client,
        "deps": {}, "wsi": 0, "orid": orid,
    }


def on_virtual_time(test):
    """Run an ``async def`` test on a virtual-time loop, for 60 s at most."""

    @functools.wraps(test)
    def run(*args, **kw):
        return run_virtual(asyncio.wait_for(test(*args, **kw), 60))

    return run


def run_virtual_store(*args, **kw):
    """``run_live_store`` on virtual time."""
    return run_virtual(run_live_store(*args, **kw))


@pytest.fixture
def flush_requests(monkeypatch):
    """``(src, dst, batch size)`` of every stand-alone control request."""
    sent = []
    request = PeerClient.request

    async def spy(self, message, **kw):
        if message.get("type") == "ctl":
            sent.append((self.src, self.dst, len(message["ctl"])))
        return await request(self, message, **kw)

    monkeypatch.setattr(PeerClient, "request", spy)
    return sent


# ----------------------------------------------------------------------
# which frame carries a control, and when it is applied
# ----------------------------------------------------------------------
class TestControlsRideFrames:
    @on_virtual_time
    async def test_response_carries_the_control_its_request_caused(self):
        async with cluster() as (spec, host, nodes, registry):
            client = spec.clients[0]
            seq = spec.home(client)
            sent_before = registry.counter_value("net.frames_sent")
            await nodes[client].call(seq, read_of(client))
            # client -> seq -> server and back: four application frames
            # (plus connection hellos), none of them a control frame
            assert host.emitted[(seq, client)] != []
            assert host.clock.applied[(seq, client)] == host.emitted[(seq, client)]
            assert registry.counter_value("net.ctl_flushed") == 0
            hellos = 2
            assert registry.counter_value("net.frames_sent") - sent_before == 4 + hellos

    @on_virtual_time
    async def test_carried_controls_apply_after_the_frames_receive_event(self):
        async with cluster() as (spec, host, nodes, _registry):
            client = spec.clients[0]
            seq = spec.home(client)
            await nodes[client].call(seq, read_of(client))
            at_client = [
                entry for entry in host.log
                if (entry[0] == "deliver" and entry[1] == client)
                or (entry[0] == "control" and entry[2] == client)
            ]
            # the response's receive event, then the control it carried
            assert at_client == [("deliver", client, seq), ("control", seq, client, 0)]

    @on_virtual_time
    async def test_control_for_a_server_waits_for_the_next_request_there(self):
        async with cluster() as (spec, host, nodes, registry):
            client = spec.clients[0]
            seq = spec.home(client)
            await nodes[client].call(seq, read_of(client, orid="t-0"))
            # the server's response made the sequencer owe it a control
            (server,) = [dst for src, dst in host.emitted if src == seq and dst != client]
            assert host.clock.applied[(seq, server)] == []
            for i in range(1, 40):  # until a read lands on that server
                await nodes[client].call(seq, read_of(client, orid=f"t-{i}"))
                if host.clock.applied[(seq, server)]:
                    break
            applied = host.clock.applied[(seq, server)]
            assert applied == host.emitted[(seq, server)][: len(applied)]
            assert applied != []
            assert registry.counter_value("net.ctl_flushed") == 0

    @on_virtual_time
    async def test_timed_out_request_puts_its_controls_back_in_order(self):
        policy = TransportPolicy(request_timeout=0.1, max_retries=0, jitter=0.0)
        async with cluster(policy) as (spec, host, nodes, registry):
            client = spec.clients[0]
            seq = spec.home(client)
            node = nodes[seq]
            server = spec.servers[0]
            first = {"csrc": seq, "cdst": server, "seq": 0, "pl": None}
            second = {"csrc": seq, "cdst": server, "seq": 1, "pl": None}
            later = {"csrc": seq, "cdst": server, "seq": 2, "pl": None}
            node._queue_controls([first, second])
            await nodes[server].kill()
            failing = asyncio.ensure_future(node.call(server, {"type": "read"}))
            await asyncio.sleep(0)  # the request takes the outbox along
            assert server not in node._ctl_out
            node._queue_controls([later])
            with pytest.raises(RequestTimeout):
                await failing
            assert node._ctl_out[server] == [first, second, later]
            assert registry.counter_value("net.ctl_piggybacked") == 0
            node._ctl_out.clear()  # nothing real to flush on the way out

    @on_virtual_time
    async def test_replayed_response_repeats_its_controls_harmlessly(self):
        async with cluster() as (spec, host, nodes, registry):
            client = spec.clients[0]
            seq = spec.home(client)
            await nodes[client].call(seq, read_of(client), rid="same")
            applied = list(host.clock.applied[(seq, client)])
            events = host.n_events
            # a retransmission of a completed rid: the cached response,
            # with the same envelope and the same ctl list
            await nodes[client].call(seq, read_of(client), rid="same")
            assert registry.counter_value("net.dedup_hits") == 1
            assert registry.counter_value("net.ctl_dup") == len(applied)
            assert host.clock.applied[(seq, client)] == applied
            # only the retransmitted request's own send event is new
            assert host.n_events == events + 1

    @on_virtual_time
    async def test_handler_error_keeps_the_owed_control_for_later(self):
        async with cluster() as (spec, host, nodes, registry):
            client = spec.clients[0]
            seq = spec.home(client)
            with pytest.raises(TransportError, match="cannot handle"):
                await nodes[client].call(seq, {"type": "nonsense"})
            # the request was received, its control had no body to ride
            assert len(host.emitted[(seq, client)]) == 1
            assert host.clock.applied[(seq, client)] == []
            await nodes[seq].flush_controls()
            assert host.clock.applied[(seq, client)] == host.emitted[(seq, client)]
            assert registry.counter_value("net.ctl_flushed") == 1


# ----------------------------------------------------------------------
# quiesce and shutdown
# ----------------------------------------------------------------------
class TestFlush:
    @staticmethod
    async def _owe_two_servers(spec, host, nodes):
        """Drive reads through one sequencer until it owes two servers."""
        client = spec.clients[0]
        seq = spec.home(client)
        for i in range(40):
            await nodes[client].call(seq, read_of(client, orid=f"t-{i}"))
            if len(nodes[seq]._ctl_out) >= 2:
                return seq
        raise AssertionError("reads never reached two servers")

    @on_virtual_time
    async def test_flush_is_one_batch_per_destination_in_sorted_order(
        self, flush_requests
    ):
        flushes = flush_requests

        async with cluster() as (spec, host, nodes, registry):
            seq = await self._owe_two_servers(spec, host, nodes)
            owed = {dst: len(batch) for dst, batch in nodes[seq]._ctl_out.items()}
            await nodes[seq].flush_controls()
            assert flushes == [(seq, dst, owed[dst]) for dst in sorted(owed)]
            assert nodes[seq]._ctl_out == {}
            assert registry.counter_value("net.ctl_flushed") == sum(owed.values())
            assert host.n_applied == host.n_emitted
            # a flush is not an application hop: no clock events
            assert all(entry[0] == "control" for entry in host.log[-sum(owed.values()):])
            await nodes[seq].flush_controls()  # nothing left to send
            assert len(flushes) == len(owed)

    @on_virtual_time
    async def test_graceful_stop_flushes_and_kill_does_not(self):
        async with cluster() as (spec, host, nodes, registry):
            seq = await self._owe_two_servers(spec, host, nodes)
            assert host.n_applied < host.n_emitted
            await nodes[seq].stop()
            assert host.n_applied == host.n_emitted
            assert registry.counter_value("net.ctl_flushed") > 0

        async with cluster() as (spec, host, nodes, registry):
            seq = await self._owe_two_servers(spec, host, nodes)
            applied = host.n_applied
            await nodes[seq].kill()
            assert nodes[seq]._ctl_out == {}
            assert host.n_applied == applied < host.n_emitted
            assert registry.counter_value("net.ctl_flushed") == 0

    @on_virtual_time
    async def test_undeliverable_flush_is_counted_lost(self):
        policy = TransportPolicy(request_timeout=0.1, max_retries=0, jitter=0.0)
        async with cluster(policy) as (spec, host, nodes, registry):
            seq = await self._owe_two_servers(spec, host, nodes)
            owed = {dst: len(batch) for dst, batch in nodes[seq]._ctl_out.items()}
            down = min(owed)
            await nodes[down].kill()
            await nodes[seq].flush_controls()
            assert registry.counter_value("net.ctl_lost") == owed[down]
            assert registry.counter_value("net.ctl_flushed") == sum(owed.values()) - owed[down]


# ----------------------------------------------------------------------
# forged and malformed controls
# ----------------------------------------------------------------------
def _good(src, dst):
    return {"csrc": src, "cdst": dst, "seq": 0, "pl": None}


MALFORMED = {
    "forged source": lambda s, d: [dict(_good(s, d), csrc=s + 1)],
    "wrong destination": lambda s, d: [dict(_good(s, d), cdst=d + 1)],
    "not a list": lambda s, d: _good(s, d),
    "element not an object": lambda s, d: [[s, d, 0, None]],
    "string seq": lambda s, d: [dict(_good(s, d), seq="0")],
    "boolean seq": lambda s, d: [dict(_good(s, d), seq=False)],
    "fractional seq": lambda s, d: [dict(_good(s, d), seq=0.0)],
    "negative seq": lambda s, d: [dict(_good(s, d), seq=-1)],
    "missing seq": lambda s, d: [
        {k: v for k, v in _good(s, d).items() if k != "seq"}
    ],
    "missing payload": lambda s, d: [
        {k: v for k, v in _good(s, d).items() if k != "pl"}
    ],
    "one bad among good": lambda s, d: [
        _good(s, d), dict(_good(s, d), seq=1, csrc=s + 1)
    ],
}


class TestForgedControls:
    @pytest.mark.parametrize("what", sorted(MALFORMED))
    @on_virtual_time
    async def test_request_with_bad_controls_is_refused(self, what):
        async with cluster() as (spec, host, nodes, registry):
            # an attached sequencer's identity, so only the controls
            # are wrong with the frame
            victim = spec.clients[0]
            src = spec.home(victim)
            peer = PeerClient(src, victim, resolve=lambda: nodes[victim].book.get(victim))
            try:
                for frame in (
                    {"type": "ctl"},  # as a flush
                    {"type": "read", "env": {"mid": 99, "ts": None}},
                ):
                    frame["ctl"] = MALFORMED[what](src, victim)
                    with pytest.raises(TransportError, match="refused"):
                        await peer.request(frame)
            finally:
                await peer.close()
            assert registry.counter_value("net.ctl_rejected") == 2
            # clock untouched: no receive event, nothing applied
            assert host.log == []
            assert host.n_events == 0

    @on_virtual_time
    async def test_well_formed_flush_from_the_channels_source_is_applied(self):
        async with cluster() as (spec, host, nodes, registry):
            victim = spec.clients[0]
            src = spec.home(victim)
            peer = PeerClient(src, victim, resolve=lambda: nodes[victim].book.get(victim))
            try:
                # out of order on purpose: seq 1 waits in the clock for
                # seq 0, which never comes, so nothing is applied yet
                early = dict(_good(src, victim), seq=1, pl=pack_payload((1, 1, 1)))
                response = await peer.request({"type": "ctl", "ctl": [early]})
            finally:
                await peer.close()
            assert response == {}
            assert host.log == [("control", src, victim, 1)]
            assert registry.counter_value("net.ctl_rejected") == 0
            assert host.clock.applied == {}
            assert host.clock._ctrl_buffer[(src, victim)] == {1: (1, 1)}

    @on_virtual_time
    async def test_response_with_forged_controls_is_refused(self):
        spec = ClusterSpec(config())
        registry = MetricsRegistry()
        with use_registry(registry):
            host = RecordingHost(RecordingClock(spec.graph, tuple(spec.sequencers)), spec)
            client = spec.clients[0]
            seq, other = spec.attached(client)

            async def impostor(_peer, _message):
                # claims to speak for the client's other sequencer
                return {"version": 0, "ctl": [_good(other, client)]}

            server = RpcServer(seq, impostor)
            book = AddressBook()
            book.set(seq, await server.start())
            node = make_node(client, spec, book, None, None, host)
            try:
                with pytest.raises(TransportError, match="refused"):
                    await node.call(seq, read_of(client))
            finally:
                await node.stop()
                await server.stop()
            assert registry.counter_value("net.ctl_rejected") == 1
            assert host.clock.applied == {}


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
@pytest.fixture
def recording_seam(monkeypatch):
    """``run_live_store`` with the recording host and clock swapped in."""
    hosts = []

    def host_factory(clock, spec):
        hosts.append(RecordingHost(clock, spec))
        return hosts[-1]

    def clock_factory(_name, spec):
        return RecordingClock(spec.graph, tuple(spec.sequencers))

    monkeypatch.setattr(loadgen, "LiveClockHost", host_factory)
    monkeypatch.setattr(loadgen, "build_live_clock", clock_factory)
    return hosts


class TestFaultFreeRun:
    def test_frame_count_is_a_function_of_the_input(self, flush_requests):
        inline = run_virtual_store(config(), clock_name="inline-cover")
        vector = run_virtual_store(config(), clock_name="vector")
        assert inline.ok and vector.ok
        assert len(flush_requests) == 3  # all inline's: vector sent none
        # the flushes and their acks are the only frames vector does not send
        assert inline.counters["net.frames_sent"] == 192
        assert vector.counters["net.frames_sent"] == 192 - 2 * 3
        stats = inline.clock_stats
        assert (stats["events"], stats["finalized"]) == (352, 176)
        assert stats["finalized_after_flush"] == 352
        for fate in ("ctl_lost", "ctl_rejected", "retransmits"):
            assert inline.counters[f"net.{fate}"] == 0

    def test_every_control_is_accounted_for(self, recording_seam):
        report = run_virtual_store(config(), clock_name="inline-cover")
        (host,) = recording_seam
        counters = report.counters
        assert report.ok
        assert host.n_emitted > 0
        assert host.n_emitted == (
            counters["net.ctl_piggybacked"]
            + counters["net.ctl_flushed"]
            + counters["net.ctl_lost"]
        )
        assert counters["net.ctl_lost"] == 0
        assert counters["net.ctl_dup"] == 0
        assert host.clock.applied == host.emitted
        rendered = report.render()
        assert (
            f"control: piggybacked={counters['net.ctl_piggybacked']} "
            f"flushed={counters['net.ctl_flushed']} dup=0 lost=0 rejected=0"
        ) in rendered

    @pytest.mark.parametrize("clock", ["vector", "hlc"])
    def test_schemes_without_controls_never_send_the_key(
        self, clock, monkeypatch
    ):
        keyed = []
        write = virtual._Pipe.write

        def spy(self, data):
            # what reaches the in-memory wire: one whole frame per write
            frame = json.loads(bytes(data[4:]))
            if isinstance(frame.get("m"), dict) and "ctl" in frame["m"]:
                keyed.append(frame)
            write(self, data)

        monkeypatch.setattr(virtual._Pipe, "write", spy)
        report = run_virtual_store(
            config(ops_per_client=3), clock_name=clock
        )
        assert report.ok
        assert keyed == []
        assert report.counters["net.ctl_piggybacked"] == 0
        assert report.counters["net.ctl_flushed"] == 0
        # the spy does see them when there are some
        run_virtual_store(config(ops_per_client=3), clock_name="inline")
        assert keyed != []


class TestUnderChaos:
    def test_loss_and_duplication_apply_each_control_at_most_once(
        self, recording_seam
    ):
        report = run_virtual_store(
            config(n_clients=3, ops_per_client=8, seed=13),
            clock_name="inline-cover",
            fault_model=CompositeFault(
                [
                    GilbertElliottLoss(p_enter_burst=0.05, p_exit_burst=0.95),
                    DuplicationFault(rate=0.1),
                ]
            ),
            policy=TransportPolicy(
                request_timeout=0.2, max_retries=6, seed=13
            ),
        )
        (host,) = recording_seam
        counters = report.counters
        assert report.ok
        # the counts are the loop's to fix (CPython 3.11 and 3.12 step
        # asyncio differently); every relation below holds on both
        for fault in ("drops_injected", "dups_injected", "retransmits"):
            assert counters[f"net.{fault}"] > 0
        assert counters["net.request_timeouts"] == 0
        # the sender's books balance ...
        assert host.n_emitted == (
            counters["net.ctl_piggybacked"] + counters["net.ctl_flushed"]
        )
        # ... and no request was abandoned with its response, so the clock
        # saw on each channel, in order and once, what was emitted on it
        assert host.clock.applied == host.emitted
        assert host.n_control_calls == host.n_applied
        assert counters["net.ctl_lost"] == counters["net.ctl_dup"] == 0
        stats = report.clock_stats
        assert stats["finalized_after_flush"] == stats["events"]


class TestCrashRestart:
    def test_sequencer_crash_keeps_checkpoints_permanent(self):
        report = run_virtual_store(
            config(n_clients=3, ops_per_client=6, seed=11),
            clock_name="inline-cover",
            crash_plan=CrashPlan(pid=0, after_ops=5, downtime=0.2),
            policy=TransportPolicy(
                request_timeout=0.2, max_retries=5, seed=11
            ),
        )
        assert report.ok
        assert report.checkpoint_problems == []
        counters = report.counters
        assert (counters["net.crashes"], counters["net.restarts"]) == (1, 1)
        # fault-free, the sessions end at virtual time 0, before the crash
        # watcher's first poll: p0 dies owing controls it never flushes ...
        assert counters["net.frames_sent"] == 145
        assert counters["net.ctl_flushed"] == counters["net.ctl_lost"] == 0
        # ... and termination finalizes what they would have
        stats = report.clock_stats
        assert (stats["finalized"], stats["finalized_after_flush"]) == (136, 272)
