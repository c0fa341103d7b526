"""Cross-host fabric workers over the :mod:`repro.net` transport.

Two halves:

- :class:`FabricService` — the coordinator side.  Wraps one
  :class:`~repro.fabric.queue.WorkQueue` + :class:`~repro.fabric.store.ResultStore`
  in an :class:`~repro.net.transport.RpcServer` running on a dedicated
  asyncio thread, so :func:`repro.fabric.coordinator.run_fabric` can serve
  remote workers while (optionally) also driving local ones.
- :func:`run_remote_worker` — the worker side, behind ``repro
  fabric-worker --connect HOST:PORT``.  Lease → execute → ship the result
  home, heartbeating while it works.

The protocol rides the transport's at-least-once / exactly-once-effect
machinery (idempotent request ids, response dedup), and every operation
is itself idempotent on top of that: completions are accepted from any
worker and absorbed by the content-addressed store, failed attempts just
consume retry budget.  A remote worker therefore needs no identity
handshake and no teardown protocol — when the coordinator vanishes
(sweep done, interrupted, or crashed) requests time out and the worker
exits.

Results travel as plain JSON in the message frame; the *coordinator*
writes them to the store, so remote hosts need no shared filesystem.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.fabric.queue import WorkQueue
from repro.fabric.store import ResultStore
from repro.net.transport import (
    ConnectionClosed,
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
)

#: process ids carried in transport frames — the fabric has exactly one
#: logical server endpoint, so the ids are fixed tokens, not topology
SERVICE_PROC = 0
WORKER_PROC = 1


class FabricService:
    """Synchronous facade serving a WorkQueue/ResultStore pair over TCP.

    ``start`` spins a daemon thread running its own asyncio loop (the
    coordinator's dispatch loop is synchronous and must keep running);
    ``stop`` is idempotent and safe to call from ``finally``.  All queue
    operations are thread-safe, so the service thread and the coordinator
    thread share the queue without further coordination.
    """

    def __init__(self, queue: WorkQueue, store: ResultStore) -> None:
        self._queue = queue
        self._store = store
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._serve, args=(host, port),
            name="fabric-service", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("fabric service failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"fabric service could not listen on {host}:{port}"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:  # loop already closing
                pass
            thread.join(timeout=5.0)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    def _serve(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = RpcServer(proc=SERVICE_PROC, handler=self._handle)
        try:
            self.address = loop.run_until_complete(server.start(host, port))
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            remaining = asyncio.all_tasks(loop)
            for task in remaining:
                task.cancel()
            if remaining:
                loop.run_until_complete(
                    asyncio.gather(*remaining, return_exceptions=True)
                )
            loop.close()

    async def _handle(self, src: int, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        worker = str(message.get("worker", f"net-{src}"))
        if op == "lease":
            leased = self._queue.lease(worker, time.monotonic())
            if leased is None:
                return {"key": None}
            key, spec = leased
            return {"key": key, "spec": spec}
        if op == "heartbeat":
            held = self._queue.heartbeat(
                message["key"], worker, time.monotonic()
            )
            return {"held": held}
        if op == "complete":
            # store first, complete second — same crash discipline as the
            # local worker path; the blocking fsync goes to a thread so it
            # cannot stall other connections' heartbeats
            await asyncio.to_thread(
                self._store.put, message["key"], message["spec"],
                message["result"],
            )
            first = self._queue.complete(message["key"], worker)
            return {"first": first}
        if op == "fail":
            self._queue.fail_attempt(
                message["key"], worker, str(message.get("error", ""))
            )
            return {"recorded": True}
        if op == "status":
            return {
                "done": self._queue.done_count(),
                "depth": self._queue.depth(),
                "all_done": self._queue.all_done(),
                "failed": self._queue.failure() is not None,
            }
        raise ValueError(f"unknown fabric op {op!r}")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
async def _heartbeat_loop(
    client: PeerClient, worker: str, key: str, interval: float,
    stop: asyncio.Event,
) -> None:
    while True:
        try:
            await asyncio.wait_for(stop.wait(), timeout=interval)
            return
        except asyncio.TimeoutError:
            pass
        try:
            await client.request(
                {"op": "heartbeat", "key": key, "worker": worker},
                max_retries=0,
            )
        except TransportError:
            # missed beat: the lease may expire and the cell be
            # reassigned; our eventual completion is still absorbed
            pass


async def _worker_loop(
    host: str,
    port: int,
    worker: str,
    executor: Callable[[Mapping[str, Any]], Any],
    heartbeat_interval: float,
    poll: float,
    max_cells: Optional[int],
) -> int:
    client = PeerClient(
        src=WORKER_PROC,
        dst=SERVICE_PROC,
        resolve=lambda: (host, port),
        policy=TransportPolicy(request_timeout=2.0, max_retries=3),
    )
    completed = 0
    # the retry budget is for a coordinator still coming up; one that has
    # answered and then goes silent has exited: follow it within one timeout
    idle_retries: Optional[int] = None
    try:
        while max_cells is None or completed < max_cells:
            try:
                leased = await client.request(
                    {"op": "lease", "worker": worker}, max_retries=idle_retries
                )
            except (RequestTimeout, ConnectionClosed):
                break  # coordinator gone: sweep over or interrupted
            idle_retries = 0
            key = leased.get("key")
            if key is None:
                try:
                    status = await client.request({"op": "status"}, max_retries=0)
                except (RequestTimeout, ConnectionClosed):
                    break
                if status.get("all_done") or status.get("failed"):
                    break
                await asyncio.sleep(poll)
                continue
            spec = leased["spec"]
            stop = asyncio.Event()
            beat = asyncio.ensure_future(
                _heartbeat_loop(client, worker, key, heartbeat_interval, stop)
            )
            try:
                result = await asyncio.to_thread(executor, spec)
            except BaseException:
                stop.set()
                await beat
                try:
                    await client.request({
                        "op": "fail", "key": key, "worker": worker,
                        "error": traceback.format_exc(),
                    })
                except (RequestTimeout, ConnectionClosed):
                    break
                continue
            stop.set()
            await beat
            try:
                await client.request({
                    "op": "complete", "key": key, "worker": worker,
                    "spec": spec, "result": result,
                })
            except (RequestTimeout, ConnectionClosed):
                break
            completed += 1
    finally:
        await client.close()
    return completed


def run_remote_worker(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    executor: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    heartbeat_interval: float = 1.0,
    poll: float = 0.2,
    max_cells: Optional[int] = None,
) -> int:
    """Attach to a fabric coordinator and work until the sweep ends.

    Returns the number of cells this worker completed.  Exits cleanly
    when the queue drains, the sweep fails, or the coordinator becomes
    unreachable; ``max_cells`` bounds the session (used by tests).
    """
    if executor is None:
        from repro.fabric.drivers import execute_cell

        executor = execute_cell
    worker = name or f"net-{os.getpid()}"
    return asyncio.run(
        _worker_loop(
            host, port, worker, executor, heartbeat_interval, poll, max_cells
        )
    )
