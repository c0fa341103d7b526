"""Transport-level tests on real loopback sockets.

Covers the at-least-once / exactly-once contract: payload codec, framing,
per-attempt timeouts with exponential backoff, receiver-side dedup (both
completed and in-flight), injected drops/duplicates via the interposer
seam, and reconnection with address re-resolution.
"""

import asyncio
import json
import socket

import pytest

from repro.net import (
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
    pack_payload,
    unpack_payload,
)
from repro.obs.metrics import MetricsRegistry, use_registry


def run(coro):
    return asyncio.run(coro)


class ScriptedInterposer:
    """frame_copies() plays back a script, then passes everything."""

    def __init__(self, script):
        self._script = list(script)
        self.consulted = 0

    def frame_copies(self, src, dst):
        self.consulted += 1
        return self._script.pop(0) if self._script else 1


class CountingHandler:
    def __init__(self, delay=0.0):
        self.calls = 0
        self.delay = delay

    async def __call__(self, peer, message):
        self.calls += 1
        if self.delay:
            await asyncio.sleep(self.delay)
        return {"echo": message, "peer": peer, "call": self.calls}


def fast_policy(**kw):
    defaults = dict(
        request_timeout=0.25,
        max_retries=3,
        backoff=2.0,
        jitter=0.0,
        reconnect_delay=0.02,
        max_reconnect_delay=0.2,
        seed=0,
    )
    defaults.update(kw)
    return TransportPolicy(**defaults)


class TestPayloadCodec:
    def test_tuples_and_int_keys_roundtrip(self):
        payload = ((1, 2, (3,)), {0: (1, float("inf")), 5: [1, {2: 3}]})
        assert unpack_payload(pack_payload(payload)) == payload

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert unpack_payload(pack_payload(value)) == value

    def test_infinity_survives(self):
        import json

        packed = pack_payload((float("inf"), 1))
        again = unpack_payload(json.loads(json.dumps(packed)))
        assert again == (float("inf"), 1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            pack_payload({1: object()})


class TestTransportPolicy:
    def test_attempt_timeout_backs_off_geometrically(self):
        p = TransportPolicy(request_timeout=0.1, backoff=2.0)
        assert p.attempt_timeout(0) == pytest.approx(0.1)
        assert p.attempt_timeout(3) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(request_timeout=0.0),
            dict(max_retries=-1),
            dict(backoff=0.5),
            dict(jitter=1.5),
            dict(reconnect_delay=0.0),
            dict(reconnect_delay=1.0, max_reconnect_delay=0.5),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TransportPolicy(**kw)


class TestRequestResponse:
    def test_roundtrip_and_peer_identity(self):
        async def go():
            handler = CountingHandler()
            server = RpcServer(1, handler)
            addr = await server.start()
            client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
            try:
                result = await client.request({"type": "ping", "x": 7})
                assert result["echo"] == {"type": "ping", "x": 7}
                assert result["peer"] == 0
            finally:
                await client.close()
                await server.stop()

        run(go())

    def test_handler_exception_becomes_transport_error(self):
        async def boom(peer, message):
            raise RuntimeError("kaput")

        async def go():
            server = RpcServer(1, boom)
            addr = await server.start()
            client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
            try:
                with pytest.raises(TransportError, match="kaput"):
                    await client.request({"type": "ping"})
            finally:
                await client.close()
                await server.stop()

        run(go())

    def test_auto_rids_are_unique_across_client_instances(self):
        a = PeerClient(0, 1, resolve=lambda: ("h", 1))
        b = PeerClient(0, 1, resolve=lambda: ("h", 1))
        assert a.next_rid() != b.next_rid()


class TestDedup:
    def test_completed_request_replays_cached_response(self):
        registry = MetricsRegistry()

        async def go():
            handler = CountingHandler()
            server = RpcServer(1, handler)
            addr = await server.start()
            client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
            try:
                first = await client.request({"n": 1}, rid="stable")
                second = await client.request({"n": 1}, rid="stable")
                assert handler.calls == 1
                assert first == second  # replay, not a re-invocation
            finally:
                await client.close()
                await server.stop()

        with use_registry(registry):
            run(go())
        assert registry.counter_value("net.dedup_hits") >= 1

    def test_concurrent_same_rid_runs_handler_once(self):
        async def go():
            handler = CountingHandler(delay=0.15)
            server = RpcServer(1, handler)
            addr = await server.start()
            policy = fast_policy(request_timeout=1.0)
            a = PeerClient(0, 1, resolve=lambda: addr, policy=policy)
            b = PeerClient(2, 1, resolve=lambda: addr, policy=policy)
            try:
                r1, r2 = await asyncio.gather(
                    a.request({"n": 1}, rid="same"),
                    b.request({"n": 1}, rid="same"),
                )
                assert handler.calls == 1
                assert r1["call"] == r2["call"] == 1
            finally:
                await a.close()
                await b.close()
                await server.stop()

        run(go())

    def test_injected_duplicates_are_suppressed(self):
        registry = MetricsRegistry()

        async def go():
            handler = CountingHandler()
            server = RpcServer(1, handler)
            addr = await server.start()
            interposer = ScriptedInterposer([2, 2, 2, 2])
            client = PeerClient(
                0, 1, resolve=lambda: addr, policy=fast_policy(),
                interposer=interposer,
            )
            try:
                for i in range(2):
                    await client.request({"n": i})
                assert handler.calls == 2  # every wire copy beyond 1 deduped
            finally:
                await client.close()
                await server.stop()

        with use_registry(registry):
            run(go())
        assert registry.counter_value("net.dups_injected") >= 2
        assert registry.counter_value("net.dedup_hits") >= 2


class TestRetryAndTimeout:
    def test_slow_handler_served_by_backoff_window(self):
        registry = MetricsRegistry()

        async def go():
            handler = CountingHandler(delay=0.4)
            server = RpcServer(1, handler)
            addr = await server.start()
            # attempt windows 0.08 / 0.16 / 0.32 / 0.64: cumulative time
            # passes 0.4s inside the fourth window, so the retransmit path
            # must carry the (single) invocation's response home
            client = PeerClient(
                0, 1, resolve=lambda: addr,
                policy=fast_policy(request_timeout=0.08, max_retries=4),
            )
            try:
                result = await client.request({"type": "slow"})
                assert result["call"] == 1
                assert handler.calls == 1
            finally:
                await client.close()
                await server.stop()

        with use_registry(registry):
            run(go())
        assert registry.counter_value("net.retransmits") >= 1

    def test_unreachable_peer_raises_bounded_request_timeout(self):
        registry = MetricsRegistry()
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()[:2]

        async def go():
            client = PeerClient(
                0, 1, resolve=lambda: dead,
                policy=fast_policy(
                    request_timeout=0.05, max_retries=2, backoff=1.0
                ),
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            try:
                with pytest.raises(RequestTimeout):
                    await client.request({"type": "ping"})
            finally:
                await client.close()
            assert loop.time() - started < 2.0  # budget bounded the failure

        with use_registry(registry):
            run(go())
        assert registry.counter_value("net.connect_failures") >= 1
        assert registry.counter_value("net.request_timeouts") == 1

    def test_injected_drop_recovered_by_retransmit(self):
        registry = MetricsRegistry()

        async def go():
            handler = CountingHandler()
            server = RpcServer(1, handler)
            addr = await server.start()
            interposer = ScriptedInterposer([0])  # eat the first transmission
            client = PeerClient(
                0, 1, resolve=lambda: addr,
                policy=fast_policy(request_timeout=0.1),
                interposer=interposer,
            )
            try:
                result = await client.request({"type": "ping"})
                assert result["call"] == 1
            finally:
                await client.close()
                await server.stop()

        with use_registry(registry):
            run(go())
        assert registry.counter_value("net.drops_injected") == 1
        assert registry.counter_value("net.retransmits") >= 1


class TestReconnect:
    def test_client_rejoins_peer_restarted_on_new_port(self):
        registry = MetricsRegistry()

        async def go():
            handler = CountingHandler()
            book = {}
            server = RpcServer(1, handler)
            book[1] = await server.start()
            client = PeerClient(
                0, 1, resolve=lambda: book[1],
                policy=fast_policy(request_timeout=2.0, max_retries=1),
            )
            try:
                await client.request({"n": 1})
                await server.stop()
                client._drop_connection()

                async def revive():
                    await asyncio.sleep(0.15)
                    replacement = RpcServer(1, handler)
                    book[1] = await replacement.start()  # new ephemeral port
                    return replacement

                reviver = asyncio.ensure_future(revive())
                result = await client.request({"n": 2})
                assert result["echo"] == {"n": 2}
                server = await reviver
            finally:
                await client.close()
                await server.stop()

        with use_registry(registry):
            run(go())
        # the outage forced at least one failed dial before the re-resolved
        # address came back up
        assert registry.counter_value("net.connect_failures") >= 1
        assert registry.counter_value("net.reconnects") >= 1

    def test_connection_accepted_during_stop_is_not_served(self):
        """A dial that lands while ``stop()`` closes the listener starts its
        connection task after ``stop()`` has cancelled the ones it knew; a
        stopped server must close it, or the peer keeps a healthy-looking
        connection to a dead node and never re-resolves its address."""

        async def go():
            handler = CountingHandler()
            server = RpcServer(1, handler)
            await server.start()
            await server.stop()
            ours, theirs = socket.socketpair()
            for frame in (
                {"t": "hello", "schema": "repro.net/1", "proc": 0},
                {"t": "req", "rid": "r-1", "m": {"n": 1}},
            ):
                body = json.dumps(frame).encode()
                theirs.sendall(len(body).to_bytes(4, "big") + body)
            reader, writer = await asyncio.open_connection(sock=ours)
            try:
                await asyncio.wait_for(
                    server._on_connection(reader, writer), 1.0
                )
                await asyncio.sleep(0.05)  # a served request would run now
                assert writer.is_closing()
            finally:
                writer.close()
                theirs.close()
            assert handler.calls == 0

        run(go())
