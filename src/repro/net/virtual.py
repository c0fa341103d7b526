"""An asyncio event loop on virtual time, with in-memory connections.

:class:`VirtualLoop` runs the unmodified roles of :mod:`repro.net`
deterministically and as fast as the processor allows.  Its ``time()`` moves
only when nothing is ready to run: the selector, asked to wait for the next
timer, advances the clock to it instead (and raises when there is no timer
to wait for).  ``create_server`` / ``create_connection`` — what
:mod:`repro.net.transport` calls — join the two protocols with in-memory
transports: bytes arrive in order one loop step after they are written, a
closed end reads EOF (and closes, unless ``eof_received`` answers true), a
connect nobody listens for is refused.  Threads are outside the loop:
nothing waits on its self-pipe.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple, TypeVar

Address = Tuple[str, int]
T = TypeVar("T")


class _Timeline(selectors.BaseSelector):
    """A selector with no file to watch: a wait for *timeout* is the virtual
    clock moving *timeout* forward."""

    def __init__(self) -> None:
        self.now = 0.0
        self._keys: Dict[Any, selectors.SelectorKey] = {}

    def register(self, fileobj: Any, events: int, data: Any = None) -> selectors.SelectorKey:
        self._keys[fileobj] = key = selectors.SelectorKey(fileobj, fileobj, events, data)
        return key

    def unregister(self, fileobj: Any) -> selectors.SelectorKey:
        return self._keys.pop(fileobj)

    def get_map(self) -> Dict[Any, selectors.SelectorKey]:
        return self._keys

    def select(self, timeout: Optional[float] = None) -> list:
        if timeout is None:
            raise RuntimeError("virtual loop stalled: nothing is ready and no timer is set")
        self.now += timeout
        return []


class _Pipe(asyncio.Transport):
    """One end of an in-memory connection."""

    def __init__(self, loop: "VirtualLoop", protocol: asyncio.Protocol) -> None:
        super().__init__()
        self._loop = loop
        self._protocol = protocol
        self.peer: Optional[_Pipe] = None
        self._closing = self._lost = self._eof = False

    def write(self, data: Any) -> None:
        if not self._closing:
            self._loop.call_soon(self.peer._receive, bytes(data))

    def _receive(self, data: bytes) -> None:
        # a socket transport stops reading at close(): bytes in flight to
        # an end closed here never reach its protocol
        if not (self._closing or self._lost or self._eof):
            self._protocol.data_received(data)

    def _receive_eof(self) -> None:
        if not (self._lost or self._eof):
            self._eof = True
            if not self._protocol.eof_received():  # asyncio's rule
                self.close()

    def _lose(self) -> None:
        self._lost = True
        self._protocol.connection_lost(None)

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._loop.call_soon(self.peer._receive_eof)
            self._loop.call_soon(self._lose)

    abort = close

    def is_closing(self) -> bool:
        return self._closing

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        return default

    def set_write_buffer_limits(self, high: Any = None, low: Any = None) -> None:
        pass  # a write is never buffered

    def get_write_buffer_size(self) -> int:
        return 0


class _Listener:
    """What ``create_server`` returns: an ``asyncio.Server`` as far as
    :class:`~repro.net.transport.RpcServer` uses one.  It is also the one
    entry of its ``sockets``, which only answer ``getsockname()``."""

    def __init__(self, loop: "VirtualLoop", address: Address, factory: Callable) -> None:
        self._loop = loop
        self._address = address
        self.factory = factory
        self.sockets = (self,)

    def getsockname(self) -> Address:
        return self._address

    def close(self) -> None:
        self._loop._listeners.pop(self._address, None)

    async def wait_closed(self) -> None:
        pass


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock and network are simulated."""

    def __init__(self) -> None:
        self._timeline = _Timeline()
        self._listeners: Dict[Address, _Listener] = {}
        self._next_port = 1
        super().__init__(self._timeline)

    def time(self) -> float:
        return self._timeline.now

    async def create_server(  # type: ignore[override]
        self, protocol_factory: Callable, host: str = "127.0.0.1", port: int = 0, **_kw: Any
    ) -> _Listener:
        if not port:
            port, self._next_port = self._next_port, self._next_port + 1
        listener = self._listeners[(host, port)] = _Listener(self, (host, port), protocol_factory)
        return listener

    async def create_connection(  # type: ignore[override]
        self, protocol_factory: Callable, host: str = "127.0.0.1", port: int = 0, **_kw: Any
    ) -> Tuple[asyncio.Transport, asyncio.Protocol]:
        listener = self._listeners.get((host, port))
        if listener is None:
            raise ConnectionRefusedError(f"nothing listens on {host}:{port}")
        ours, theirs = protocol_factory(), listener.factory()
        near, far = _Pipe(self, ours), _Pipe(self, theirs)
        near.peer, far.peer = far, near
        ours.connection_made(near)
        self.call_soon(theirs.connection_made, far)
        return near, ours


def run_virtual(main: Awaitable[T]) -> T:
    """``asyncio.run`` on a fresh :class:`VirtualLoop`: run *main*, cancel
    what it left behind, close the loop."""
    loop = VirtualLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        leftover = asyncio.all_tasks(loop)
        for task in leftover:
            task.cancel()
        if leftover:
            loop.run_until_complete(asyncio.gather(*leftover, return_exceptions=True))
        loop.close()
