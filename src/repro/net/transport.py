"""Reliable request/response transport over real asyncio TCP sockets.

The simulator's reliable control transport (:mod:`repro.sim.network`) lives
in virtual time; this module is its live-network sibling and the foundation
of the :mod:`repro.net` runtime.  Design goals, in order:

- **Framing.**  Every message is one frame: a 4-byte big-endian length
  prefix followed by a JSON object.  JSON keeps frames inspectable on the
  wire; clock payloads (tuples, integer-keyed dicts, ``inf`` sentinels) are
  carried through the lossless :func:`pack_payload` tagging scheme because
  plain JSON would silently turn tuples into lists and integer keys into
  strings.  A connection is a :class:`FrameStream`, an ``asyncio.Protocol``
  that hands each frame to its owner where its bytes arrive: no reader task
  and no wake-up per socket read.  A frame that is oversized, not JSON or
  not an object costs the connection it arrived on and nothing else
  (``net.frames_rejected``): the client drops that connection and its
  running attempt's retransmission dials a new one, the server closes it
  and keeps serving the others.
- **At-least-once requests, exactly-once effects.**  Every request carries
  an idempotent request id (``rid``).  :class:`PeerClient` retransmits a
  request after a per-attempt deadline with exponential backoff + jitter,
  up to a bounded retry budget.  One attempt is one timer: it covers
  (re)connecting, writing the frame and waiting for the response, and a
  response to *any* earlier transmission of the rid completes the attempt
  that is waiting.  :class:`RpcServer` deduplicates by ``rid`` as each
  request arrives — a retransmit of a completed request replays the cached
  response frame, byte for byte, and one of an in-flight request joins the
  first invocation.  That invocation is one task owned by the server, not
  by the connection that asked first, so losing the connection neither
  cancels the handler nor forgets its result; only :meth:`RpcServer.stop`
  cancels it, and then nothing is cached and nothing is answered.
- **Reconnection.**  A :class:`PeerClient` owns at most one TCP connection
  to its peer and re-establishes it on failure with exponential backoff +
  jitter, re-resolving the peer's address on every attempt so a node that
  restarts on a new port is found again (see
  :class:`repro.net.supervisor.Supervisor`).
- **Fault interposition.**  Both endpoints accept a
  :class:`repro.net.chaos_proxy.ChaosInterposer`; the send path consults it
  per frame and drops or duplicates frames accordingly, which is how the
  simulator's :class:`~repro.faults.models.FaultModel` hierarchy is applied
  to live connections.

All counters land in the active :class:`repro.obs.metrics.MetricsRegistry`
(``net.*`` namespace) so live runs are observable through the same trace
pipeline as simulations.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.obs import counter

#: refuse frames larger than this (corrupt length prefix / runaway payload)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: wire-format version tag carried in every hello frame
WIRE_SCHEMA = "repro.net/2"

#: responses an :class:`RpcServer` keeps for retransmitted request ids
DEDUP_CAPACITY = 4096


class TransportError(Exception):
    """Base class for transport failures."""


class RequestTimeout(TransportError):
    """The retry budget for a request was exhausted without a response."""


class ConnectionClosed(TransportError):
    """The peer closed the connection (EOF) or the stream broke."""


#: each retransmission waits, and each reconnect sleeps, this many times
#: as long as the one before
BACKOFF = 2.0
#: a wait grows by up to this fraction, drawn from the policy's seeded rng
JITTER = 0.25
#: the first reconnect sleep, and the most the ladder grows to (seconds)
RECONNECT_DELAY = 0.05
MAX_RECONNECT_DELAY = 2.0


@dataclass(frozen=True)
class TransportPolicy:
    """Timeout/retry knobs shared by clients and reconnect loops.

    ``request_timeout`` is the per-attempt response deadline; a request is
    retransmitted up to ``max_retries`` times, waiting
    ``request_timeout * BACKOFF**attempt`` (plus up to ``JITTER`` of that,
    drawn from the policy rng seed) between attempts.  Reconnects use the
    same backoff ladder, from ``RECONNECT_DELAY`` up to
    ``MAX_RECONNECT_DELAY``.
    """

    request_timeout: float = 1.0
    max_retries: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def attempt_timeout(self, attempt: int) -> float:
        """Response deadline for the *attempt*-th transmission (0-based)."""
        return self.request_timeout * (BACKOFF**attempt)


# ----------------------------------------------------------------------
# lossless payload tagging (tuples / int-keyed dicts survive JSON)
# ----------------------------------------------------------------------
#: exact types that cross the codec unchanged; their subclasses (``IntEnum``)
#: and the containers take the ``isinstance`` branches
_SCALARS = frozenset((int, float, str, bool, type(None)))


def pack_payload(obj: Any) -> Any:
    """Encode an arbitrary clock payload into JSON-safe structures.

    Tuples become ``{"__tup": [...]}``, dicts become ``{"__map": [[k, v],
    ...]}`` (preserving key types), lists recurse; scalars pass through.
    ``float('inf')`` survives because Python's :mod:`json` round-trips
    ``Infinity`` by default.  Scalar members are mapped inside the
    comprehensions, so a flat vector costs one call, not one per element.
    """
    scalars = _SCALARS
    if type(obj) in scalars:
        return obj
    if isinstance(obj, tuple):
        return {
            "__tup": [x if type(x) in scalars else pack_payload(x) for x in obj]
        }
    if isinstance(obj, dict):
        return {
            "__map": [
                [
                    k if type(k) in scalars else pack_payload(k),
                    v if type(v) in scalars else pack_payload(v),
                ]
                for k, v in obj.items()
            ]
        }
    if isinstance(obj, list):
        return [x if type(x) in scalars else pack_payload(x) for x in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"unsupported payload component: {type(obj)!r}")


def unpack_payload(obj: Any) -> Any:
    """Inverse of :func:`pack_payload`."""
    scalars = _SCALARS
    if isinstance(obj, dict):
        if len(obj) == 1:
            if "__tup" in obj:
                return tuple(
                    [
                        x if type(x) in scalars else unpack_payload(x)
                        for x in obj["__tup"]
                    ]
                )
            if "__map" in obj:
                return {
                    (k if type(k) in scalars else unpack_payload(k)): (
                        v if type(v) in scalars else unpack_payload(v)
                    )
                    for k, v in obj["__map"]
                }
        return {
            k: v if type(v) in scalars else unpack_payload(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [x if type(x) in scalars else unpack_payload(x) for x in obj]
    return obj


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
#: one compact encoder and one decoder for every frame (``json.dumps`` /
#: ``json.loads`` with arguments build a new coder per call).  The encoder
#: keeps no table of the containers it is inside (a quarter of its time on a
#: typical frame): a frame that contains itself still fails, as a
#: ``RecursionError`` instead of a ``ValueError``.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode = json.JSONDecoder().decode

def _encode_frame(obj: Dict[str, Any]) -> bytes:
    """*obj* as one frame: a 4-byte big-endian length, then compact JSON.
    Raises ``TypeError`` / ``ValueError`` / ``RecursionError`` for what JSON
    cannot carry."""
    body = _encode(obj).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large ({len(body)} bytes)")
    return len(body).to_bytes(4, "big") + body


class FrameStream(asyncio.Protocol):
    """Length-prefixed JSON frames over one connection.

    :meth:`data_received` cuts whole frames off the connection's buffer and
    hands each to ``on_frame(stream, frame)`` there and then, and
    ``on_frame(stream, None)`` once the connection is gone (EOF closes it:
    :meth:`eof_received` is the base class's).  A frame that is oversized,
    not JSON or not an object costs the connection (:meth:`reject`).

    A frame is one transport ``write()``, never interleaved with another, so
    senders need no lock.  The high-water mark is one maximal frame, so a
    frame written while nothing is buffered (:attr:`idle`) cannot cause
    back-pressure and goes out as one synchronous :meth:`write`, no
    coroutine; only :meth:`send` to a stream with bytes still buffered
    waits, for :meth:`drain`, which ``pause_writing`` / ``resume_writing``
    drive.
    """

    def __init__(
        self, on_frame: Callable[["FrameStream", Optional[Dict[str, Any]]], None]
    ) -> None:
        self._on_frame = on_frame
        self._transport: Optional[asyncio.BaseTransport] = None
        self._inbox = bytearray()
        self._closed = False
        #: while the transport holds writing back: what drain() waits for
        self._drained: Optional[asyncio.Future] = None
        self._frames_sent = counter("net.frames_sent")
        self._frames_received = counter("net.frames_received")

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        transport.set_write_buffer_limits(high=MAX_FRAME_BYTES + 4)
        if self._closed:  # closed before the connection was made
            transport.close()

    def data_received(self, data: bytes) -> None:
        inbox = self._inbox
        inbox += data
        start, have = 0, len(inbox)
        while have - start >= 4 and not self._closed:
            size = int.from_bytes(inbox[start:start + 4], "big")
            if size > MAX_FRAME_BYTES:
                return self.reject()
            end = start + 4 + size
            if end > have:
                break
            body = inbox[start + 4:end]
            start = end
            try:
                frame = _decode(body.decode("utf-8"))
            except ValueError:  # bad UTF-8 or bad JSON
                return self.reject()
            if type(frame) is not dict:
                return self.reject()
            self._frames_received.inc()
            self._on_frame(self, frame)
        del inbox[:start]

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        waiter, self._drained = self._drained, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = True
        self.resume_writing()  # a waiting drain() wakes up and raises
        self._on_frame(self, None)

    @property
    def idle(self) -> bool:
        """Nothing waits in the write buffer: the next frame can be written
        without waiting."""
        return self._transport.get_write_buffer_size() == 0

    def write(self, frame: bytes) -> None:
        """Put one encoded frame on the wire now, without waiting (an
        :attr:`idle` stream, or one just drained).  A connection that is
        closing, or whose socket write just failed, raises
        :class:`ConnectionClosed` at once: asyncio would drop the bytes
        silently."""
        transport = self._transport
        if not transport.is_closing():
            transport.write(frame)
            if not transport.is_closing():  # a failed send closes at once
                self._frames_sent.inc()
                return
        raise ConnectionClosed("connection lost")

    async def drain(self) -> None:
        """Wait until the write buffer is back under its low-water mark."""
        if self._drained is not None:
            await self._drained
        if self._transport.is_closing():
            raise ConnectionClosed("connection lost")

    async def send(self, obj: Dict[str, Any]) -> None:
        """Encode *obj* and write it as one frame, after waiting out
        back-pressure if bytes are still buffered."""
        frame = _encode_frame(obj)
        if not self.idle:
            await self.drain()
        self.write(frame)

    def reject(self) -> None:
        """Give the connection up over a frame that cannot be trusted."""
        counter("net.frames_rejected").inc()
        self.close()

    def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            self._transport.close()


def _write_interposed(
    stream: FrameStream, frame: bytes, interposer: Any, src: int, dst: int
) -> None:
    """Write *frame* now, as many times as the interposer says (0 = dropped).
    Nothing here waits: the caller found *stream* :attr:`~FrameStream.idle`,
    or drained it."""
    copies = 1
    if interposer is not None:
        copies = interposer.frame_copies(src, dst)
        if copies == 0:
            counter("net.drops_injected").inc()
            return
        if copies > 1:
            counter("net.dups_injected").inc(copies - 1)
    for _ in range(copies):
        stream.write(frame)


async def _send_interposed(
    stream: FrameStream, frame: bytes, interposer: Any, src: int, dst: int
) -> None:
    """:func:`_write_interposed`, for a stream that may be back-pressured."""
    if not stream.idle:
        await stream.drain()
    _write_interposed(stream, frame, interposer, src, dst)


# ----------------------------------------------------------------------
# client side: reconnect + retransmit
# ----------------------------------------------------------------------
AddressResolver = Callable[[], Tuple[str, int]]


def _expire(fut: asyncio.Future) -> None:
    """An attempt's deadline: resolve its future with "no response"."""
    if not fut.done():
        fut.set_result(None)


class PeerClient:
    """One logical connection from a local process to a remote one.

    ``resolve`` is re-invoked on every (re)connection attempt, which is what
    lets a supervisor restart the peer on a fresh ephemeral port.  ``src`` /
    ``dst`` are the process ids the connection represents; the optional
    *interposer* sees them when deciding per-frame fates.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        resolve: AddressResolver,
        policy: Optional[TransportPolicy] = None,
        interposer: Optional[Any] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self._resolve = resolve
        self.policy = policy or TransportPolicy()
        self._interposer = interposer
        self._rng = random.Random((self.policy.seed << 20) ^ (src << 10) ^ dst)
        self._nonce = f"{os.getpid():x}.{time.monotonic_ns():x}"
        self._stream: Optional[FrameStream] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._rid_counter = itertools.count()
        self._conn_lock = asyncio.Lock()
        self._closed = False

    # -- connection management -----------------------------------------
    async def _ensure_connected(self) -> FrameStream:
        async with self._conn_lock:
            if self._stream is not None:
                return self._stream
            delay = RECONNECT_DELAY
            attempt = 0
            loop = asyncio.get_running_loop()
            while True:
                if self._closed:
                    raise ConnectionClosed("client closed")
                host, port = self._resolve()
                try:
                    _, stream = await loop.create_connection(
                        lambda: FrameStream(self._on_frame), host, port
                    )
                    # a new stream is idle: nothing waits, nothing is cancelled
                    stream.write(_encode_frame(
                        {"t": "hello", "schema": WIRE_SCHEMA, "proc": self.src}
                    ))
                    self._stream = stream
                    if attempt:
                        counter("net.reconnects").inc()
                    return stream
                except (ConnectionError, OSError):
                    attempt += 1
                    counter("net.connect_failures").inc()
                    sleep = min(delay, MAX_RECONNECT_DELAY)
                    sleep *= 1.0 + JITTER * self._rng.random()
                    await asyncio.sleep(sleep)
                    delay *= BACKOFF

    def _on_frame(self, stream: FrameStream, frame: Optional[Dict[str, Any]]) -> None:
        """A response resolves the attempt waiting for its rid; the end of
        the connection drops it, so the next transmission reconnects."""
        if frame is None:
            if self._stream is stream:
                self._stream = None
        elif frame.get("t") == "res":
            fut = self._pending.get(frame.get("rid"))
            if fut is not None and not fut.done():
                fut.set_result(frame)
            else:
                # a duplicate, or its requester gave the rid up
                counter("net.responses_unmatched").inc()

    def _drop_connection(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- request path ---------------------------------------------------
    def next_rid(self) -> str:
        # the nonce makes auto-generated rids unique across client
        # *instances*: a node restarted after a crash must not reuse the
        # rids of its previous incarnation, or the peer's dedup cache would
        # replay stale responses to brand-new requests
        return f"p{self.src}:p{self.dst}:{self._nonce}:{next(self._rid_counter)}"

    async def request(
        self,
        message: Dict[str, Any],
        rid: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Send *message*, await the matching response; retransmit on timeout.

        The request id is stable across retransmissions, so the receiver's
        dedup layer guarantees the handler runs at most once no matter how
        many copies arrive.  Raises :class:`RequestTimeout` when the retry
        budget is exhausted, and at once what encoding *message* raises.
        """
        if self._closed:
            raise ConnectionClosed("client closed")
        rid = rid or self.next_rid()
        retries = self.policy.max_retries
        # encoded once: every transmission writes the same bytes
        frame = _encode_frame({"t": "req", "rid": rid, "m": message})
        loop = asyncio.get_running_loop()
        try:
            for attempt in range(retries + 1):
                if attempt:
                    counter("net.retransmits").inc()
                per_attempt = self.policy.attempt_timeout(attempt) * (
                    1.0 + JITTER * self._rng.random()
                )
                # a fresh future under the same rid: a response to an earlier
                # transmission completes whichever attempt is waiting
                fut = self._pending[rid] = loop.create_future()
                # one deadline covers (re)connecting, writing the frame and
                # the response, so an unreachable peer cannot stall the
                # bounded retry budget inside the reconnect backoff loop
                deadline = loop.call_later(per_attempt, _expire, fut)
                sender = None
                try:
                    stream = self._stream
                    if stream is not None and stream.idle:
                        try:
                            _write_interposed(
                                stream, frame, self._interposer, self.src, self.dst
                            )
                        except TransportError:
                            self._drop_connection()
                    else:  # not connected, or back-pressured: may wait
                        sender = loop.create_task(
                            self._connect_and_send(frame, fut)
                        )
                    response = await fut
                finally:
                    deadline.cancel()
                    if sender is not None:
                        sender.cancel()
                if response is None:
                    continue
                if not response.get("ok", False):
                    raise TransportError(
                        str(response.get("m", "remote error"))
                    )
                return response.get("m", {})
            counter("net.request_timeouts").inc()
            raise RequestTimeout(
                f"p{self.src}->p{self.dst} rid={rid} after {retries + 1} attempt(s)"
            )
        finally:
            self._pending.pop(rid, None)

    async def _connect_and_send(self, frame: bytes, fut: asyncio.Future) -> None:
        """The waiting half of an attempt, cancelled at its deadline."""
        try:
            stream = await self._ensure_connected()
            await _send_interposed(
                stream, frame, self._interposer, self.src, self.dst
            )
        except TransportError:
            self._drop_connection()
        except Exception as exc:  # e.g. a failing resolver: the caller's
            if not fut.done():
                fut.set_exception(exc)

    async def close(self) -> None:
        self._closed = True
        self._drop_connection()
        for fut in self._pending.values():
            if not fut.done():
                fut.cancel()


# ----------------------------------------------------------------------
# server side: dedup + handler dispatch
# ----------------------------------------------------------------------
Handler = Callable[[int, Dict[str, Any]], Awaitable[Dict[str, Any]]]

#: a connection waiting for a response, and the peer its hello named
Asker = Tuple[FrameStream, int]


class RpcServer:
    """Accepts framed connections, dispatches requests exactly once.

    A connection's first frame must be a hello naming the peer; each
    request after it is looked up in the dedup tables as it arrives
    (:meth:`_on_frame`).  ``handler(src_proc, message) -> response`` runs in
    one task per request id, owned by the server and not by the connection
    that asked first: a deferred read cannot head-of-line-block a
    connection, and a requester that loses its connection and retransmits
    over a new one still finds the first invocation running.  Each response
    is encoded once, when the invocation finishes, and its frame's bytes are
    cached by request id — a result JSON cannot carry becomes an ``ok:
    false`` response with the encoder's message, like a handler exception.
    The cache holds :data:`DEDUP_CAPACITY` responses, FIFO: a hit does not
    refresh one.  A retransmission of a *completed* request writes the
    cached bytes again, and one racing an in-flight invocation joins the
    connections that invocation answers when it finishes.
    """

    def __init__(
        self,
        proc: int,
        handler: Handler,
        interposer: Optional[Any] = None,
    ) -> None:
        self.proc = proc
        self._handler = handler
        self._interposer = interposer
        self._server: Optional[asyncio.AbstractServer] = None
        #: open connection -> the peer its hello named (``None`` before it)
        self._conns: Dict[FrameStream, Optional[int]] = {}
        #: rid -> its response frame, encoded, oldest first
        self._done: "OrderedDict[str, bytes]" = OrderedDict()
        #: rid whose handler is running -> everyone waiting for its response
        self._inflight: Dict[str, List[Asker]] = {}
        #: handler invocations, and replays waiting out back-pressure
        self._tasks: set = set()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._accept, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    def _accept(self) -> FrameStream:
        """The protocol factory: one :class:`FrameStream` per connection."""
        stream = FrameStream(self._on_frame)
        if self._server is None:
            # accepted just as stop() closed the listener: serving it would
            # leave a stopped (crashed) node answering on a connection its
            # peer has no reason to drop
            stream.close()
        else:
            self._conns[stream] = None
        return stream

    def _on_frame(self, stream: FrameStream, frame: Optional[Dict[str, Any]]) -> None:
        conns = self._conns
        if frame is None:
            conns.pop(stream, None)
            return
        peer = conns.get(stream)
        if peer is None:
            peer = frame.get("proc")
            if (
                frame.get("t") != "hello"
                or frame.get("schema") != WIRE_SCHEMA
                or type(peer) is not int
            ):
                stream.reject()  # not a hello of this schema
            else:
                conns[stream] = peer
            return
        if frame.get("t") != "req":
            return
        rid = frame.get("rid", "")
        response = self._done.get(rid)
        if response is not None:
            counter("net.dedup_hits").inc()
            counter("net.dedup_replayed").inc()
            self._respond(stream, peer, response)
        elif rid in self._inflight:
            counter("net.dedup_hits").inc()
            counter("net.dedup_joined").inc()
            self._inflight[rid].append((stream, peer))
        else:
            self._inflight[rid] = [(stream, peer)]
            self._tasks.add(asyncio.get_running_loop().create_task(
                self._invoke(rid, peer, frame.get("m", {}))
            ))

    async def _invoke(self, rid: str, peer: int, message: Dict[str, Any]) -> None:
        """Run the handler once for *rid*, cache the encoded response, answer
        every connection that asked meanwhile.  Cancelled only by
        :meth:`stop` (crash/teardown: never cache, never respond)."""
        try:
            try:
                body = await self._handler(peer, message)
                response = _encode_frame({"t": "res", "rid": rid, "ok": True, "m": body})
            except Exception as exc:  # a handler error, or a body JSON cannot carry
                response = _encode_frame({"t": "res", "rid": rid, "ok": False, "m": str(exc)})
            # from here on a copy of rid replays the cache: the list is final
            askers = self._inflight.pop(rid)
            self._done[rid] = response
            while len(self._done) > DEDUP_CAPACITY:
                self._done.popitem(last=False)
            for stream, asker in askers:
                self._respond(stream, asker, response)
        finally:
            self._tasks.discard(asyncio.current_task())

    def _respond(self, stream: FrameStream, peer: int, response: bytes) -> None:
        """Write *response* now to an idle *stream*, with no coroutine; a
        back-pressured one gets it from a task once it drains."""
        if not stream.idle:
            task = asyncio.get_running_loop().create_task(
                self._respond_drained(stream, peer, response)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            return
        try:
            _write_interposed(stream, response, self._interposer, self.proc, peer)
        except TransportError:
            pass  # requester reconnects and retransmits; dedup replays

    async def _respond_drained(self, stream: FrameStream, peer: int, response: bytes) -> None:
        try:
            await _send_interposed(stream, response, self._interposer, self.proc, peer)
        except TransportError:
            pass  # as in _respond

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()  # from here on, _accept closes what it is handed
        for stream in list(self._conns):
            stream.close()
        self._conns.clear()
        tasks = list(self._tasks)
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        # what a task cancelled before its first step could not tidy itself
        self._tasks.clear()
        self._inflight.clear()
