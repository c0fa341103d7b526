"""Reliable request/response transport over real asyncio TCP sockets.

The simulator's reliable control transport (:mod:`repro.sim.network`) lives
in virtual time; this module is its live-network sibling and the foundation
of the :mod:`repro.net` runtime.  Design goals, in order:

- **Framing.**  Every message is one frame: a 4-byte big-endian length
  prefix followed by a JSON object.  JSON keeps frames inspectable on the
  wire; clock payloads (tuples, integer-keyed dicts, ``inf`` sentinels) are
  carried through the lossless :func:`pack_payload` tagging scheme because
  plain JSON would silently turn tuples into lists and integer keys into
  strings.
- **At-least-once requests, exactly-once effects.**  Every request carries
  an idempotent request id (``rid``).  :class:`PeerClient` retransmits a
  request after a per-request timeout with exponential backoff + jitter, up
  to a bounded retry budget; :class:`RpcServer` deduplicates by ``rid`` —
  a retransmit of a completed request replays the cached response without
  re-invoking the handler, and a retransmit of an in-flight request simply
  awaits the first invocation.
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
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.obs import counter

#: refuse frames larger than this (corrupt length prefix / runaway payload)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: wire-format version tag carried in every hello frame
WIRE_SCHEMA = "repro.net/1"


class TransportError(Exception):
    """Base class for transport failures."""


class RequestTimeout(TransportError):
    """The retry budget for a request was exhausted without a response."""


class ConnectionClosed(TransportError):
    """The peer closed the connection (EOF) or the stream broke."""


@dataclass(frozen=True)
class TransportPolicy:
    """Timeout/retry/backoff knobs shared by clients and reconnect loops.

    ``request_timeout`` is the per-attempt response deadline; a request is
    retransmitted up to ``max_retries`` times, waiting
    ``request_timeout * backoff**attempt`` (plus up to ``jitter`` fraction
    of that, drawn from the policy rng seed) between attempts.  Reconnects
    use the same backoff ladder starting from ``reconnect_delay``.
    """

    request_timeout: float = 1.0
    max_retries: int = 4
    backoff: float = 2.0
    jitter: float = 0.25
    reconnect_delay: float = 0.05
    max_reconnect_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.reconnect_delay <= 0 or self.max_reconnect_delay < self.reconnect_delay:
            raise ValueError("need 0 < reconnect_delay <= max_reconnect_delay")

    def attempt_timeout(self, attempt: int) -> float:
        """Response deadline for the *attempt*-th transmission (0-based)."""
        return self.request_timeout * (self.backoff**attempt)


# ----------------------------------------------------------------------
# lossless payload tagging (tuples / int-keyed dicts survive JSON)
# ----------------------------------------------------------------------
def pack_payload(obj: Any) -> Any:
    """Encode an arbitrary clock payload into JSON-safe structures.

    Tuples become ``{"__tup": [...]}``, dicts become ``{"__map": [[k, v],
    ...]}`` (preserving key types), lists recurse; scalars pass through.
    ``float('inf')`` survives because Python's :mod:`json` round-trips
    ``Infinity`` by default.
    """
    if isinstance(obj, tuple):
        return {"__tup": [pack_payload(x) for x in obj]}
    if isinstance(obj, dict):
        return {"__map": [[pack_payload(k), pack_payload(v)] for k, v in obj.items()]}
    if isinstance(obj, list):
        return [pack_payload(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"unsupported payload component: {type(obj)!r}")


def unpack_payload(obj: Any) -> Any:
    """Inverse of :func:`pack_payload`."""
    if isinstance(obj, dict):
        if "__tup" in obj and len(obj) == 1:
            return tuple(unpack_payload(x) for x in obj["__tup"])
        if "__map" in obj and len(obj) == 1:
            return {unpack_payload(k): unpack_payload(v) for k, v in obj["__map"]}
        return {k: unpack_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [unpack_payload(x) for x in obj]
    return obj


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class FrameStream:
    """Length-prefixed JSON frames over one asyncio stream pair."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._send_lock = asyncio.Lock()

    async def send(self, obj: Dict[str, Any]) -> None:
        body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise TransportError(f"frame too large ({len(body)} bytes)")
        frame = len(body).to_bytes(4, "big") + body
        async with self._send_lock:
            self._writer.write(frame)
            try:
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                raise ConnectionClosed(str(exc)) from exc
        counter("net.frames_sent").inc()

    async def recv(self) -> Optional[Dict[str, Any]]:
        """Next frame, or ``None`` on a clean EOF."""
        try:
            header = await self._reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        size = int.from_bytes(header, "big")
        if size > MAX_FRAME_BYTES:
            raise TransportError(f"incoming frame too large ({size} bytes)")
        try:
            body = await self._reader.readexactly(size)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        counter("net.frames_received").inc()
        return json.loads(body.decode("utf-8"))

    def close(self) -> None:
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


# ----------------------------------------------------------------------
# client side: reconnect + retransmit
# ----------------------------------------------------------------------
AddressResolver = Callable[[], Tuple[str, int]]


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
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._rid_counter = itertools.count()
        self._conn_lock = asyncio.Lock()
        self._closed = False

    # -- connection management -----------------------------------------
    async def _ensure_connected(self) -> FrameStream:
        async with self._conn_lock:
            if self._stream is not None:
                return self._stream
            delay = self.policy.reconnect_delay
            attempt = 0
            while True:
                if self._closed:
                    raise ConnectionClosed("client closed")
                host, port = self._resolve()
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                    stream = FrameStream(reader, writer)
                    await stream.send(
                        {"t": "hello", "schema": WIRE_SCHEMA, "proc": self.src}
                    )
                    self._stream = stream
                    self._reader_task = asyncio.ensure_future(
                        self._read_loop(stream)
                    )
                    if attempt:
                        counter("net.reconnects").inc()
                    return stream
                except (ConnectionError, OSError):
                    attempt += 1
                    counter("net.connect_failures").inc()
                    sleep = min(delay, self.policy.max_reconnect_delay)
                    sleep *= 1.0 + self.policy.jitter * self._rng.random()
                    await asyncio.sleep(sleep)
                    delay *= self.policy.backoff

    async def _read_loop(self, stream: FrameStream) -> None:
        while True:
            try:
                frame = await stream.recv()
            except TransportError:
                frame = None
            if frame is None:
                break
            if frame.get("t") == "res":
                fut = self._pending.get(frame.get("rid"))
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        # connection died: drop it so the next request reconnects
        if self._stream is stream:
            self._stream = None
        stream.close()

    def _drop_connection(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None

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
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Send *message*, await the matching response; retransmit on timeout.

        The request id is stable across retransmissions, so the receiver's
        dedup layer guarantees the handler runs at most once no matter how
        many copies arrive.  Raises :class:`RequestTimeout` when the retry
        budget is exhausted.
        """
        if self._closed:
            raise ConnectionClosed("client closed")
        rid = rid or self.next_rid()
        retries = self.policy.max_retries if max_retries is None else max_retries
        frame = {"t": "req", "rid": rid, "m": message}
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending[rid] = fut
        try:
            for attempt in range(retries + 1):
                if attempt:
                    counter("net.retransmits").inc()
                per_attempt = (
                    timeout
                    if timeout is not None
                    else self.policy.attempt_timeout(attempt)
                )
                per_attempt *= 1.0 + self.policy.jitter * self._rng.random()
                started = loop.time()
                try:
                    # the attempt window covers (re)connecting + writing the
                    # frame, so an unreachable peer cannot stall the bounded
                    # retry budget inside the reconnect backoff loop
                    await asyncio.wait_for(self._transmit(frame), per_attempt)
                except asyncio.TimeoutError:
                    continue
                except (ConnectionClosed, TransportError):
                    self._drop_connection()
                remaining = per_attempt - (loop.time() - started)
                if remaining <= 0:
                    continue
                try:
                    response = await asyncio.wait_for(
                        asyncio.shield(fut), remaining
                    )
                except asyncio.TimeoutError:
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
            if not fut.done():
                fut.cancel()

    async def _transmit(self, frame: Dict[str, Any]) -> None:
        stream = await self._ensure_connected()
        copies = 1
        if self._interposer is not None:
            copies = self._interposer.frame_copies(self.src, self.dst)
            if copies == 0:
                counter("net.drops_injected").inc()
                return
            if copies > 1:
                counter("net.dups_injected").inc(copies - 1)
        for _ in range(copies):
            await stream.send(frame)

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


class RpcServer:
    """Accepts framed connections, dispatches requests exactly once.

    ``handler(src_proc, message) -> response`` runs in its own task per
    request, so a deferred read cannot head-of-line-block the connection.
    Responses are cached by request id in a bounded LRU; a retransmission
    of a *completed* request replays the cache, and one racing an in-flight
    invocation awaits that invocation instead of re-running the handler.
    """

    def __init__(
        self,
        proc: int,
        handler: Handler,
        interposer: Optional[Any] = None,
        dedup_capacity: int = 4096,
    ) -> None:
        if dedup_capacity < 1:
            raise ValueError("dedup_capacity must be >= 1")
        self.proc = proc
        self._handler = handler
        self._interposer = interposer
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._inflight: Dict[str, asyncio.Task] = {}
        self._capacity = dedup_capacity
        self._conn_tasks: set = set()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._on_connection, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._server is None:
            # accepted just as stop() closed the listener, so stop() never
            # saw this task: serving it would leave a stopped (crashed) node
            # answering on a connection its peer has no reason to drop
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        stream = FrameStream(reader, writer)
        request_tasks: set = set()
        try:
            hello = await stream.recv()
            if not hello or hello.get("t") != "hello":
                return
            peer = int(hello.get("proc", -1))
            while True:
                frame = await stream.recv()
                if frame is None:
                    break
                if frame.get("t") != "req":
                    continue
                t = asyncio.ensure_future(
                    self._serve_one(stream, peer, frame)
                )
                request_tasks.add(t)
                t.add_done_callback(request_tasks.discard)
        except asyncio.CancelledError:
            pass  # server teardown; fall through to cleanup
        finally:
            for t in request_tasks:
                t.cancel()
            stream.close()

    async def _serve_one(
        self, stream: FrameStream, peer: int, frame: Dict[str, Any]
    ) -> None:
        rid = frame.get("rid", "")
        response = self._done.get(rid)
        if response is not None:
            counter("net.dedup_hits").inc()
        else:
            running = self._inflight.get(rid)
            if running is not None:
                counter("net.dedup_hits").inc()
            else:
                running = asyncio.ensure_future(
                    self._handler(peer, frame.get("m", {}))
                )
                self._inflight[rid] = running
            try:
                body = await asyncio.shield(running)
                response = {"t": "res", "rid": rid, "ok": True, "m": body}
            except asyncio.CancelledError:
                # crash/teardown: never cache, never respond
                self._inflight.pop(rid, None)
                raise
            except Exception as exc:  # handler error -> error response
                response = {"t": "res", "rid": rid, "ok": False, "m": str(exc)}
            if self._inflight.get(rid) is running:
                del self._inflight[rid]
            self._done[rid] = response
            while len(self._done) > self._capacity:
                self._done.popitem(last=False)
        copies = 1
        if self._interposer is not None:
            copies = self._interposer.frame_copies(self.proc, peer)
            if copies == 0:
                counter("net.drops_injected").inc()
                return
            if copies > 1:
                counter("net.dups_injected").inc(copies - 1)
        try:
            for _ in range(copies):
                await stream.send(response)
        except (ConnectionClosed, TransportError):
            pass  # requester reconnects and retransmits; dedup replays

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for t in list(self._inflight.values()):
            t.cancel()
        self._inflight.clear()
        for t in list(self._conn_tasks):
            t.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
