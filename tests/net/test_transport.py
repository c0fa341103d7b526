"""Transport-level tests on real loopback sockets.

Covers the at-least-once / exactly-once contract: payload codec, framing
(however the bytes are cut, and what a malformed frame costs), per-attempt
deadlines with exponential backoff, receiver-side dedup (both completed and
in-flight) by a handler task the server owns, injected drops/duplicates via
the interposer seam, and reconnection with address re-resolution.
"""

import asyncio
import contextlib
import enum
import functools
import json
import socket
from typing import Any, NamedTuple, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.faults.models import DuplicationFault
from repro.net import (
    ChaosInterposer,
    ConnectionClosed,
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
    pack_payload,
    unpack_payload,
)
from repro.net.transport import MAX_FRAME_BYTES, WIRE_SCHEMA, FrameStream
from repro.obs.metrics import MetricsRegistry, use_registry

HELLO = {"t": "hello", "schema": WIRE_SCHEMA, "proc": 0}


def on_loop(test):
    """Run an ``async def`` test with ``asyncio.run``, and fail it on anything
    the loop's exception handler saw ("Unhandled exception in
    client_connected_cb", a task exception nobody retrieved): those would
    otherwise be log lines."""

    @functools.wraps(test)
    def run(*args, **kw):
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: reported.append(context)
            )
            await test(*args, **kw)

        asyncio.run(main())
        assert not reported, reported

    return run


@pytest.fixture
def registry():
    """A fresh metrics registry, active for the whole test."""
    with use_registry(MetricsRegistry()) as active:
        yield active


def framed(obj) -> bytes:
    body = json.dumps(obj).encode()
    return len(body).to_bytes(4, "big") + body


def contains_itself() -> dict:
    value = {}
    value["me"] = value
    return value


async def read_frame(reader) -> bytes:
    """One whole frame off a raw stream, length prefix included."""
    prefix = await reader.readexactly(4)
    return prefix + await reader.readexactly(int.from_bytes(prefix, "big"))


def queued() -> Tuple[FrameStream, asyncio.Queue]:
    """A hand-driven :class:`FrameStream`: each frame it receives, then
    ``None`` when its connection ends, goes into the queue."""
    inbox: asyncio.Queue = asyncio.Queue()
    return FrameStream(lambda _stream, frame: inbox.put_nowait(frame)), inbox


async def on_socket(sock) -> Tuple[FrameStream, asyncio.Queue]:
    """:func:`queued`, connected over the socket *sock*."""
    stream, inbox = queued()
    await asyncio.get_running_loop().connect_accepted_socket(lambda: stream, sock)
    return stream, inbox


async def dial(address) -> Tuple[FrameStream, asyncio.Queue]:
    """A hand-driven connection to an ``RpcServer``, hello already sent."""
    stream, inbox = queued()
    await asyncio.get_running_loop().create_connection(lambda: stream, *address)
    await stream.send(HELLO)
    return stream, inbox


@contextlib.asynccontextmanager
async def scripted_peer(answer):
    """A listener standing in for an ``RpcServer``: each request frame goes to
    ``answer(stream, frame, nth_connection)``.  Yields its address; on exit
    every connection must already have seen its client's EOF."""
    serving = []

    async def serve(stream, inbox, nth):
        try:
            if await inbox.get() is not None:  # hello
                while (frame := await inbox.get()) is not None:
                    await answer(stream, frame, nth)
        finally:
            stream.close()

    def accept():
        stream, inbox = queued()
        serving.append(asyncio.ensure_future(serve(stream, inbox, len(serving) + 1)))
        return stream

    listener = await asyncio.get_running_loop().create_server(accept, "127.0.0.1", 0)
    try:
        yield listener.sockets[0].getsockname()[:2]
    finally:
        await asyncio.wait_for(asyncio.gather(*serving), 1.0)
        listener.close()
        await listener.wait_closed()


async def until(condition, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition not met"
        await asyncio.sleep(0.005)


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


class GatedHandler:
    """Blocks every invocation until ``release`` is set."""

    def __init__(self):
        self.calls = self.finished = self.cancelled = 0
        self.release = asyncio.Event()

    async def __call__(self, peer, message):
        self.calls += 1
        try:
            await self.release.wait()
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        self.finished += 1
        return {"call": self.calls}


def fast_policy(**kw):
    defaults = dict(
        request_timeout=0.25,
        max_retries=3,
        seed=0,
    )
    defaults.update(kw)
    return TransportPolicy(**defaults)


# ----------------------------------------------------------------------
# the codec as it was before it stopped recursing once per scalar, kept as
# the reference the one-pass version must match byte for byte
# ----------------------------------------------------------------------
def reference_pack(obj):
    if isinstance(obj, tuple):
        return {"__tup": [reference_pack(x) for x in obj]}
    if isinstance(obj, dict):
        return {
            "__map": [[reference_pack(k), reference_pack(v)] for k, v in obj.items()]
        }
    if isinstance(obj, list):
        return [reference_pack(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"unsupported payload component: {type(obj)!r}")


def reference_unpack(obj):
    if isinstance(obj, dict):
        if "__tup" in obj and len(obj) == 1:
            return tuple(reference_unpack(x) for x in obj["__tup"])
        if "__map" in obj and len(obj) == 1:
            return {
                reference_unpack(k): reference_unpack(v) for k, v in obj["__map"]
            }
        return {k: reference_unpack(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [reference_unpack(x) for x in obj]
    return obj


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Stamp(NamedTuple):
    counter: int
    rest: Any


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # inf included; nan != nan would hide a match
    st.text(max_size=3),
    st.sampled_from(list(Colour)),
)
KEYS = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=3),
        # the tag names as ordinary keys must not be mistaken for tags
        st.dictionaries(st.sampled_from(["__tup", "__map", "k"]), inner, max_size=2),
        st.builds(Stamp, st.integers(), inner),
    ),
    max_leaves=24,
)


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

    @given(payload=PAYLOADS)
    def test_wire_bytes_match_the_per_scalar_reference(self, payload):
        wire = compact(pack_payload(payload))
        assert wire == compact(reference_pack(payload))
        decoded = json.loads(wire)
        assert unpack_payload(decoded) == reference_unpack(json.loads(wire))


class TestTransportPolicy:
    def test_attempt_timeout_backs_off_geometrically(self):
        p = TransportPolicy(request_timeout=0.1)
        assert p.attempt_timeout(0) == pytest.approx(0.1)
        assert p.attempt_timeout(3) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(request_timeout=0.0),
            dict(max_retries=-1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TransportPolicy(**kw)


class TestRequestResponse:
    @on_loop
    async def test_roundtrip_and_peer_identity(self):
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

    @on_loop
    async def test_handler_exception_becomes_transport_error(self):
        async def boom(peer, message):
            raise RuntimeError("kaput")

        server = RpcServer(1, boom)
        addr = await server.start()
        client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
        try:
            with pytest.raises(TransportError, match="kaput"):
                await client.request({"type": "ping"})
        finally:
            await client.close()
            await server.stop()

    @pytest.mark.parametrize(
        "result, error",
        [
            ({"value": object()}, "not JSON serializable"),
            (contains_itself(), "recursion"),
        ],
        ids=["foreign-object", "contains-itself"],
    )
    @on_loop
    async def test_a_result_json_cannot_carry_is_an_error_response_at_once(
        self, registry, result, error
    ):
        """Used to cache the result and fail to encode it on every send: the
        caller timed out after its whole retry budget, the invocation task
        died unretrieved, and each retransmission killed its connection."""
        calls = []

        async def unencodable(peer, message):
            calls.append(message)
            return result

        server = RpcServer(1, unencodable)
        addr = await server.start()
        client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
        try:
            for _ in range(2):  # the second asks again: the cached error replays
                with pytest.raises(TransportError, match=error) as raised:
                    await client.request({"n": 1}, rid="r")
                assert type(raised.value) is TransportError  # not a RequestTimeout
        finally:
            await client.close()
            await server.stop()

        assert len(calls) == 1
        assert registry.counter_value("net.retransmits") == 0
        assert registry.counter_value("net.dedup_replayed") == 1

    def test_auto_rids_are_unique_across_client_instances(self):
        a = PeerClient(0, 1, resolve=lambda: ("h", 1))
        b = PeerClient(0, 1, resolve=lambda: ("h", 1))
        assert a.next_rid() != b.next_rid()


class TestDedup:
    @on_loop
    async def test_completed_request_replays_cached_response(self, registry):
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

        assert registry.counter_value("net.dedup_hits") >= 1

    @on_loop
    async def test_a_replay_writes_the_first_response_byte_for_byte(self, registry):
        body = {"n": 1, "later": []}

        async def handler(peer, message):
            return body

        server = RpcServer(1, handler)
        addr = await server.start()
        reader, writer = await asyncio.open_connection(*addr)
        request = framed({"t": "req", "rid": "r", "m": {}})
        try:
            writer.write(framed(HELLO) + request)
            first = await read_frame(reader)
            # the handler's object changes after the fact: a replay that
            # encoded it again would carry the change
            body["later"].append("not on the wire")
            writer.write(request)
            again = await read_frame(reader)
        finally:
            writer.close()
            await server.stop()

        assert again == first
        assert json.loads(first[4:])["m"] == {"n": 1, "later": []}
        assert registry.counter_value("net.dedup_replayed") == 1

    @on_loop
    async def test_concurrent_same_rid_runs_handler_once(self):
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

    @on_loop
    async def test_injected_duplicates_are_suppressed(self, registry):
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

        assert registry.counter_value("net.dups_injected") >= 2
        assert registry.counter_value("net.dedup_hits") >= 2


class TestRetryAndTimeout:
    @on_loop
    async def test_slow_handler_served_by_backoff_window(self, registry):
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

        assert registry.counter_value("net.retransmits") >= 1

    @on_loop
    async def test_unreachable_peer_raises_bounded_request_timeout(self, registry):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()[:2]

        client = PeerClient(
            0, 1, resolve=lambda: dead,
            policy=fast_policy(request_timeout=0.05, max_retries=2),
        )
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            with pytest.raises(RequestTimeout):
                await client.request({"type": "ping"})
        finally:
            await client.close()

        assert loop.time() - started < 2.0  # budget bounded the failure
        assert registry.counter_value("net.connect_failures") >= 1
        assert registry.counter_value("net.request_timeouts") == 1

    @on_loop
    async def test_injected_drop_recovered_by_retransmit(self, registry):
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

        assert registry.counter_value("net.drops_injected") == 1
        assert registry.counter_value("net.retransmits") >= 1


class TestReconnect:
    @on_loop
    async def test_client_rejoins_peer_restarted_on_new_port(self, registry):
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

        # the outage forced at least one failed dial before the re-resolved
        # address came back up
        assert registry.counter_value("net.connect_failures") >= 1
        assert registry.counter_value("net.reconnects") >= 1

    @on_loop
    async def test_connection_accepted_during_stop_is_not_served(self):
        """A dial that lands while ``stop()`` closes the listener reaches
        the protocol factory after ``stop()`` has closed the connections it
        knew; a stopped server must close it, or the peer keeps a
        healthy-looking connection to a dead node and never re-resolves its
        address."""
        handler = CountingHandler()
        server = RpcServer(1, handler)
        await server.start()
        await server.stop()
        ours, theirs = socket.socketpair()
        for frame in (
            HELLO,
            {"t": "req", "rid": "r-1", "m": {"n": 1}},
        ):
            body = json.dumps(frame).encode()
            theirs.sendall(len(body).to_bytes(4, "big") + body)

        transport, _ = await asyncio.get_running_loop().connect_accepted_socket(
            server._accept, ours
        )
        try:
            await asyncio.sleep(0.05)  # a served request would run now
            assert transport.is_closing()
        finally:
            transport.close()
            theirs.close()

        assert handler.calls == 0


class TestFraming:
    FRAMES = [{"t": "req", "rid": "a", "m": {"n": 1}}, {"k": "é" * 40}, {}]

    @pytest.mark.parametrize(
        "cut",
        [
            lambda wire: [wire[i:i + 1] for i in range(len(wire))],
            lambda wire: [wire[:2], wire[2:]],  # inside the length prefix
            lambda wire: [wire],  # three frames in one write
        ],
        ids=["byte-by-byte", "split-prefix", "one-write"],
    )
    @on_loop
    async def test_recv_yields_the_same_frames_however_the_bytes_arrive(self, cut):
        ours, theirs = socket.socketpair()
        stream, inbox = await on_socket(ours)
        got = []
        try:
            for piece in cut(b"".join(framed(f) for f in self.FRAMES)):
                theirs.sendall(piece)
                await asyncio.sleep(0)  # let the loop deliver it alone
                await asyncio.sleep(0)
            theirs.close()
            while (frame := await asyncio.wait_for(inbox.get(), 2.0)) is not None:
                got.append(frame)
        finally:
            theirs.close()
            stream.close()

        assert got == self.FRAMES

    @on_loop
    async def test_a_write_to_a_lost_connection_fails_at_once(self, registry):
        ours, theirs = socket.socketpair()
        stream, _ = await on_socket(ours)
        theirs.close()
        try:
            # the socket refuses the bytes: asyncio would drop them silently
            with pytest.raises(ConnectionClosed):
                stream.write(framed({"n": 1}))
            with pytest.raises(ConnectionClosed):
                await stream.send({"n": 2})
        finally:
            stream.close()

        assert registry.counter_value("net.frames_sent") == 0

    @on_loop
    async def test_a_back_pressured_stream_waits_for_drain(self, registry):
        ours, theirs = socket.socketpair()
        theirs.setblocking(False)
        stream, _ = await on_socket(ours)
        # a high-water mark below one frame the socket cannot take at once
        stream._transport.set_write_buffer_limits(high=1024)
        loop = asyncio.get_running_loop()
        try:
            # an idle stream takes a frame at once, however large
            await asyncio.wait_for(stream.send({"pad": "x" * 1_000_000}), 1.0)
            assert not stream.idle
            waiting = asyncio.ensure_future(stream.send({"n": 2}))
            await asyncio.sleep(0.05)
            assert not waiting.done()
            assert registry.counter_value("net.frames_sent") == 1

            async def read_until_sent():
                while not waiting.done():
                    await loop.sock_recv(theirs, 1 << 16)

            await asyncio.wait_for(read_until_sent(), 2.0)
            await waiting
        finally:
            stream.close()
            theirs.close()

        assert registry.counter_value("net.frames_sent") == 2


class TestMalformedFrames:
    """A bad frame costs the connection it arrived on, nothing else."""

    @pytest.mark.parametrize(
        "hello, payload, rejected",
        [
            (HELLO, (3).to_bytes(4, "big") + b"{{{", 1),
            (HELLO, (2).to_bytes(4, "big") + b"\xff\xfe", 1),
            (HELLO, framed([1, 2]), 1),
            (HELLO, (MAX_FRAME_BYTES + 1).to_bytes(4, "big"), 1),
            # EOF inside a frame is an EOF, not a malformed frame
            (HELLO, (100).to_bytes(4, "big") + b'{"t":', 0),
            ({**HELLO, "proc": "zero"}, b"", 1),
            ({**HELLO, "schema": "repro.net/0"}, b"", 1),
            # controls with their own channel fields, before a riding
            # control was its acknowledgement alone
            ({**HELLO, "schema": "repro.net/1"}, b"", 1),
            ({"t": "req", "rid": "r", "m": {}}, b"", 1),
        ],
        ids=[
            "garbage-body", "bad-utf8", "json-array", "oversized-prefix",
            "truncated-body-then-eof", "non-integer-proc", "wrong-schema",
            "previous-schema", "no-hello",
        ],
    )
    @on_loop
    async def test_server_closes_that_connection_and_keeps_serving(
        self, registry, hello, payload, rejected
    ):
        handler = CountingHandler()
        server = RpcServer(1, handler)
        addr = await server.start()
        client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
        reader, writer = await asyncio.open_connection(*addr)
        try:
            await client.request({"n": 0})  # a healthy neighbour
            writer.write(framed(hello) + payload)
            writer.write_eof()
            # closed without a response frame
            assert await asyncio.wait_for(reader.read(), 1.0) == b""
            await client.request({"n": 1})  # still served, same connection
            assert handler.calls == 2
        finally:
            writer.close()
            await client.close()
            await server.stop()

        assert registry.counter_value("net.frames_rejected") == rejected
        assert registry.counter_value("net.reconnects") == 0

    @on_loop
    async def test_client_drops_the_connection_and_the_retransmission_reconnects(self, registry):
        """One garbage response used to kill the read loop with the dead
        stream still installed: every later request timed out."""
        async def answer(stream, frame, connection):
            if connection == 1:
                stream._transport.write((3).to_bytes(4, "big") + b"{{{")
            else:
                await stream.send(
                    {"t": "res", "rid": frame["rid"], "ok": True,
                     "m": {"via": connection}}
                )

        async with scripted_peer(answer) as addr:
            client = PeerClient(
                0, 1, resolve=lambda: addr,
                policy=fast_policy(request_timeout=0.1),
            )
            try:
                assert await client.request({"n": 1}) == {"via": 2}
                assert await client.request({"n": 2}) == {"via": 2}
            finally:
                await client.close()

        assert registry.counter_value("net.frames_rejected") == 1
        assert registry.counter_value("net.retransmits") == 1
        assert registry.counter_value("net.request_timeouts") == 0

    @on_loop
    async def test_response_for_an_unknown_rid_is_ignored_and_counted(self, registry):
        async def answer(stream, frame, _connection):
            for rid in ("nobody-asked", frame["rid"]):
                await stream.send(
                    {"t": "res", "rid": rid, "ok": True, "m": {"rid": rid}}
                )

        async with scripted_peer(answer) as addr:
            client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
            try:
                assert await client.request({"n": 1}, rid="mine") == {
                    "rid": "mine"
                }
            finally:
                await client.close()

        assert registry.counter_value("net.responses_unmatched") == 1
        assert registry.counter_value("net.frames_rejected") == 0


class TestHandlerOwnership:
    """The handler task belongs to the server, not to the asking connection."""

    @on_loop
    async def test_retransmission_on_a_new_connection_joins_the_running_handler(self, registry):
        handler = GatedHandler()
        server = RpcServer(1, handler)
        addr = await server.start()
        request = {"t": "req", "rid": "r", "m": {}}
        first, _ = await dial(addr)
        second = None
        try:
            await first.send(request)
            await until(lambda: handler.calls == 1)
            first.close()  # the requester lost its connection ...
            second, inbox = await dial(addr)  # ... and retransmits over a new one
            await second.send(request)
            await until(
                lambda: registry.counter_value("net.dedup_joined") == 1
            )
            handler.release.set()
            response = await asyncio.wait_for(inbox.get(), 1.0)
            assert response == {
                "t": "res", "rid": "r", "ok": True, "m": {"call": 1}
            }
            assert handler.calls == 1
        finally:
            first.close()
            if second is not None:
                second.close()
            await server.stop()

        assert registry.counter_value("net.dedup_replayed") == 0
        assert registry.counter_value("net.dedup_hits") == 1

    @pytest.mark.parametrize("retransmit", ["while-running", "after-it-finished"])
    @on_loop
    async def test_closing_the_asking_connection_does_not_cancel_the_handler(
        self, registry, retransmit
    ):
        """Used to run the handler twice: the connection's end cancelled the
        per-request task, which forgot the rid while the shielded handler
        ran on, its result never cached."""
        handler = GatedHandler()
        server = RpcServer(1, handler)
        addr = await server.start()
        request = {"t": "req", "rid": "r", "m": {}}
        first, _ = await dial(addr)
        second = None
        try:
            await first.send(request)
            await until(lambda: handler.calls == 1)
            first.close()
            await asyncio.sleep(0.05)  # the server sees the EOF
            assert handler.cancelled == 0
            if retransmit == "after-it-finished":
                handler.release.set()
                await until(lambda: handler.finished == 1)
            second, inbox = await dial(addr)
            await second.send(request)
            if retransmit == "while-running":
                await until(
                    lambda: registry.counter_value("net.dedup_joined") == 1
                )
                handler.release.set()
            response = await asyncio.wait_for(inbox.get(), 1.0)
            assert response["m"] == {"call": 1}
            assert handler.calls == handler.finished == 1
        finally:
            first.close()
            if second is not None:
                second.close()
            await server.stop()

        replayed = 1 if retransmit == "after-it-finished" else 0
        assert registry.counter_value("net.dedup_replayed") == replayed
        assert registry.counter_value("net.dedup_joined") == 1 - replayed

    @on_loop
    async def test_stop_cancels_the_handler_caches_nothing_answers_nothing(self):
        handler = GatedHandler()
        server = RpcServer(1, handler)
        addr = await server.start()
        asker, inbox = await dial(addr)
        try:
            await asker.send({"t": "req", "rid": "r", "m": {}})
            await until(lambda: handler.calls == 1)
            await server.stop()
            assert handler.cancelled == 1 and handler.finished == 0
            assert not server._done and not server._inflight
            assert await asyncio.wait_for(inbox.get(), 1.0) is None
        finally:
            asker.close()


class TestAttempts:
    @on_loop
    async def test_response_to_attempt_0_landing_in_attempt_1_completes_the_request(self, registry):
        handler = CountingHandler(delay=0.15)
        server = RpcServer(1, handler)
        addr = await server.start()
        # attempt 0 (0.1 s) goes out, attempt 1 (0.2 s) is eaten: the only
        # response there will ever be answers the first transmission
        interposer = ScriptedInterposer([1, 0])
        client = PeerClient(
            0, 1, resolve=lambda: addr,
            policy=fast_policy(request_timeout=0.1, max_retries=1),
            interposer=interposer,
        )
        try:
            assert (await client.request({"n": 1}))["call"] == 1
            assert handler.calls == 1
        finally:
            await client.close()
            await server.stop()

        assert registry.counter_value("net.retransmits") == 1
        assert registry.counter_value("net.drops_injected") == 1
        assert registry.counter_value("net.request_timeouts") == 0

    @on_loop
    async def test_deadline_covers_the_reconnect_loop(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()[:2]

        # the default reconnect ladder: left alone, it would back off for
        # seconds
        policy = TransportPolicy(request_timeout=0.05, max_retries=2)
        client = PeerClient(0, 1, resolve=lambda: dead, policy=policy)
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            with pytest.raises(RequestTimeout, match=r"after 3 attempt\(s\)"):
                await client.request({"n": 1})
        finally:
            await client.close()

        assert loop.time() - started < 1.0

    @on_loop
    async def test_concurrent_requests_share_one_connection(self, registry):
        handler = CountingHandler(delay=0.01)
        server = RpcServer(1, handler)
        addr = await server.start()
        client = PeerClient(0, 1, resolve=lambda: addr, policy=fast_policy())
        try:
            results = await asyncio.gather(
                *(client.request({"n": i}) for i in range(16))
            )
            assert [r["echo"] for r in results] == [{"n": i} for i in range(16)]
            assert handler.calls == 16
        finally:
            await client.close()
            await server.stop()

        # one hello, sixteen requests, sixteen responses
        assert registry.counter_value("net.frames_sent") == 1 + 32
        assert registry.counter_value("net.retransmits") == 0

    @on_loop
    async def test_every_frame_duplicated_still_runs_the_handler_once_per_rid(self, registry):
        n = 8
        handler = CountingHandler()
        chaos = ChaosInterposer(DuplicationFault(rate=1.0), seed=3)
        server = RpcServer(1, handler, interposer=chaos)
        addr = await server.start()
        client = PeerClient(
            0, 1, resolve=lambda: addr, policy=fast_policy(), interposer=chaos
        )
        try:
            for i in range(n):
                assert (await client.request({"n": i}))["call"] == i + 1
            assert handler.calls == n
        finally:
            await client.close()
            await server.stop()

        assert registry.counter_value("net.dedup_hits") == n
        # per rid: one extra request copy, and one extra copy of the response
        # to each of the two request copies
        assert registry.counter_value("net.dups_injected") == 3 * n
