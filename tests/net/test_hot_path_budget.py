"""Deterministic budgets for one operation of the live store.

Wall-clock gates flake; on a :class:`~repro.net.virtual.VirtualLoop` the
number of Python-level function calls a seeded run makes does not, nor does
the number of objects the run keeps for the cyclic collector to traverse.
Both are taken on the benchmark's 3/4/16 sequencer deployment, 10 operations
per client (160 in all) over 8 keys, seed 7, with ``inline-cover`` and with
``vector``; calls are counted with ``sys.setprofile`` (``call`` events only,
coroutine resumptions included, the way the benchmark counts
``net.py_calls_per_op``), after one uncounted run and with the collector
off, so that neither a first run's lazy imports nor a ``gc.callbacks`` hook
another test installed lands in the count.  Objects are counted as ``len(gc.get_objects())``
when the run quiesces — sessions over, controls flushed, the audit done,
just before the nodes stop — minus before the run, the collector off in
between so that no collection untracks a tuple on one side only.

At ``61b56c7`` the run made 1,740.5 (``inline-cover``) / 1,573.8
(``vector``) calls per operation and kept 140.8 / 118.1 objects per
operation alive at quiesce on CPython 3.11 (1,599.7 / 1,468.7 calls and
140.8 / 118.0 objects on 3.12): an ``Event`` and its ``EventId`` per event
in the clock host, the decoded response dicts of every cached RPC, and an
``EventId`` per event in the clock's newly-finalized list.  With the host
logging integer columns, responses cached as encoded bytes, an idle stream
written without a coroutine and the hot counters resolved once, it made
1,502.4 / 1,346.0 calls and kept 48.8 / 42.0 objects (3.12: 1,362.8 /
1,240.9 and 48.7 / 42.0) — of those, the timestamp of each event is the
run's product.  With the clock host calling each clock's integer record
step — no ``Event`` or ``EventId`` per hop — and an in-order control
applied without touching the resequencing buffer, it makes 1,308.7 /
1,181.8 calls (3.12: 1,169.0 / 1,076.7) and keeps 48.9 / 42.0 objects.
With a riding control reduced to its packed acknowledgement, checked once
per frame, and the inline timestamps written slot by slot, it makes
1,279.6 / 1,175.6 calls (3.12: 1,150.1 / 1,070.6) and keeps 49.0 / 41.9
objects.  That no hop builds an ``Event`` is pinned on its own: the run
completes with ``Event`` construction made to raise.

Below the clocks, the loop's own work is counted too: futures created
(``loop.create_future``) and callbacks scheduled (``loop.call_soon`` — task
steps, future callbacks and the virtual pipes' deliveries).  With a
``StreamReader`` and a reading task per connection and a ``Condition``
round trip on every read, a run made 16.4 / 16.3 futures and
40.0 / 39.7 callbacks per operation (1,273.9 / 1,175.9 calls).  With the
``FrameStream`` an ``asyncio.Protocol`` that hands each frame to its owner
in ``data_received``, and a read whose dependencies are met answered
without waiting, it makes 5.9 / 5.9 futures, 28.3 / 28.2 callbacks and
1,029.0 / 932.5 calls per operation.

The metadata on the wire must not move: frames and events are pinned
exactly, and so are the compact-JSON bytes of every envelope's ``ts`` and
every control's ``pl`` and the number of controls, as measured at
``43f638e`` — before the clock, not the host, numbered each control
channel.  The frames' own bytes are pinned too: dropping each control's
channel fields took ``inline-cover`` from 411,337 to 389,324, and
``vector`` stays at 427,586.  Dispatching a frame where its bytes arrive is
a loop step earlier than a reader task's wake-up, and a read answered at
once skips several more, so the run interleaves differently: frames,
events and controls stay, while the envelopes' bytes went from (72,739,
17,395) to (72,672, 17,382) (``vector``: 140,394 to 140,283) and the frames'
from 389,324 to 388,346 (``vector``: 427,586 to 426,529): the same frames
carry other values when events are stamped in another order.
"""

import dataclasses
import gc
import json
import sys

import pytest

from repro.applications.causal_kv import StoreConfig
from repro.clocks.base import INFINITY
from repro.clocks.inline_cover import CoverTimestamp
from repro.core.events import Event
from repro.net import (
    LiveClockHost,
    PeerClient,
    VirtualLoop,
    loadgen,
    run_live_store,
    supervisor,
    transport,
)

CONFIG = StoreConfig(
    n_sequencers=3, n_servers=4, n_clients=16, n_keys=8, ops_per_client=10, seed=7
)
OPS = 160
EVENTS = 3_752
#: clock -> frames sent, measured at the parent and unchanged since
FRAMES = {"inline-cover": 1_916, "vector": 1_904}
#: clock -> (envelope ``ts`` bytes, control ``pl`` bytes, controls), compact
#: JSON, summed over the run
WIRE = {"inline-cover": (72_672, 17_382, 812), "vector": (140_283, 0, 0)}
#: clock -> bytes of every frame written, length prefixes and hellos
#: included, with each client's request-id nonce fixed at ``NONCE``
FRAME_BYTES = {"inline-cover": 388_346, "vector": 426_529}
#: a request-id nonce is the process id and a clock reading in hex; this one
#: has a typical length, 16 characters
NONCE = "1a2b.0123456789a"
#: measured 1,029.0 / 932.5 on CPython 3.11; +5 %
CEILING_CALLS_PER_OP = {"inline-cover": 1_080.5, "vector": 979.1}
#: measured 5.91 / 5.87 futures and 28.34 / 28.19 callbacks on CPython
#: 3.11; +5 %
CEILING_FUTURES_PER_OP = {"inline-cover": 6.21, "vector": 6.16}
CEILING_CALLBACKS_PER_OP = {"inline-cover": 29.76, "vector": 29.60}
#: measured 49.0 / 41.9 on CPython 3.11; +5 %
CEILING_ALIVE_PER_OP = {"inline-cover": 51.5, "vector": 44.0}
#: bytecode instructions one ``CoverTimestamp(...)`` executes, its calling
#: lambda's included: measured 31 / 36 / 30 / 25 on CPython 3.10 / 3.11 /
#: 3.12 / 3.13, where the frozen dataclass's generated ``__init__`` (an
#: ``object.__setattr__`` per field) executes 41 / 46 / 40 / 40; 36 + 5 %.
#: A wall-clock bound of 0.85 µs held the same property until it failed on
#: a loaded host at 0.90 µs.
CEILING_COVER_TIMESTAMP_INSTRUCTIONS = 37


class CountingLoop(VirtualLoop):
    """A :class:`VirtualLoop` that counts the futures it creates and the
    callbacks it schedules."""

    futures = callbacks = 0

    def create_future(self):
        self.futures += 1
        return super().create_future()

    def call_soon(self, *args, **kw):
        self.callbacks += 1
        return super().call_soon(*args, **kw)


def _run(clock, loop=None):
    loop = loop or VirtualLoop()
    # asyncio's debug mode (``-X dev``, as CI runs tests/net) keeps a
    # traceback per callback and future: the budgets count the run, not that
    loop.set_debug(False)
    try:
        report = loop.run_until_complete(run_live_store(CONFIG, clock))
    finally:
        loop.close()
    assert report.ok
    assert report.ops_completed == OPS
    assert report.clock_stats["events"] == EVENTS
    assert report.counters["net.frames_sent"] == FRAMES[clock]
    return report


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_calls_per_op_stay_under_the_ceiling(clock):
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    _run(clock)  # the first run in a process pays for lazy imports
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        _run(clock)
    finally:
        sys.setprofile(previous)
        gc.enable()
    per_op = calls / OPS
    assert per_op <= CEILING_CALLS_PER_OP[clock], per_op


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_futures_and_callbacks_per_op_stay_under_the_ceiling(clock):
    loop = CountingLoop()
    _run(clock, loop)
    futures, callbacks = loop.futures / OPS, loop.callbacks / OPS
    assert futures <= CEILING_FUTURES_PER_OP[clock], futures
    assert callbacks <= CEILING_CALLBACKS_PER_OP[clock], callbacks


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_objects_alive_at_quiesce_per_op_stay_under_the_ceiling(clock, monkeypatch):
    at_quiesce = []
    stop_all = supervisor.Supervisor.stop_all

    async def counting_stop_all(self):
        gc.collect()
        at_quiesce.append(len(gc.get_objects()))
        await stop_all(self)

    monkeypatch.setattr(supervisor.Supervisor, "stop_all", counting_stop_all)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _run(clock)
    finally:
        gc.enable()
    (alive,) = at_quiesce
    per_op = (alive - before) / OPS
    assert per_op <= CEILING_ALIVE_PER_OP[clock], per_op


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_a_live_hop_builds_no_event(clock, monkeypatch):
    """The clock host hands the clock integers: with ``Event`` construction
    made to raise, the run still completes, frames and events exact."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a live run built an Event{args!r}")

    monkeypatch.setattr(Event, "__init__", refuse)
    _run(clock)


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_the_wire_carries_the_same_bytes(clock, monkeypatch):
    totals = [0, 0, 0]

    def wire(obj):
        return len(json.dumps(obj, separators=(",", ":")))

    class CountingHost(LiveClockHost):
        def envelope(self, src, dst):
            env = super().envelope(src, dst)
            totals[0] += wire(env["ts"])
            return env

        def deliver(self, dst, src, env):
            controls = super().deliver(dst, src, env)
            for ctl in controls:
                totals[1] += wire(ctl["pl"])
                totals[2] += 1
            return controls

    monkeypatch.setattr(loadgen, "LiveClockHost", CountingHost)
    _run(clock)
    assert tuple(totals) == WIRE[clock]


@pytest.mark.parametrize("clock", sorted(FRAMES))
def test_the_frames_carry_the_same_bytes(clock, monkeypatch):
    total = 0
    write = transport.FrameStream.write
    init = PeerClient.__init__

    def counting_write(self, frame):
        nonlocal total
        total += len(frame)
        write(self, frame)

    def fixed_nonce(self, *args, **kw):
        init(self, *args, **kw)
        self._nonce = NONCE

    monkeypatch.setattr(transport.FrameStream, "write", counting_write)
    monkeypatch.setattr(PeerClient, "__init__", fixed_nonce)
    _run(clock)
    assert total == FRAME_BYTES[clock]


def _instructions(fn):
    """Bytecode instructions executed in the frames ``fn()`` runs: opcode
    tracing, or on 3.12+ the ``sys.monitoring`` events it is built on (on
    3.12.1 a frame whose tracer turns opcode events on at its ``call``
    event never gets one)."""
    count = 0
    if hasattr(sys, "monitoring"):
        monitoring, here = sys.monitoring, sys._getframe().f_code
        tool = next(t for t in range(6) if monitoring.get_tool(t) is None)

        def on_instruction(code, _offset):
            nonlocal count
            count += code is not here

        monitoring.use_tool_id(tool, "instruction budget")
        monitoring.register_callback(tool, monitoring.events.INSTRUCTION, on_instruction)
        monitoring.set_events(tool, monitoring.events.INSTRUCTION)
        try:
            fn()
        finally:
            monitoring.set_events(tool, 0)
            monitoring.free_tool_id(tool)
        return count

    def trace(frame, event, _arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def test_a_cover_timestamp_is_built_under_the_ceiling():
    fields = (5, 3, (1, 2, 3), (4, INFINITY, 5), (0, 1, 2))
    build = lambda: CoverTimestamp(*fields)  # noqa: E731
    build()
    executed = _instructions(build)
    assert executed <= CEILING_COVER_TIMESTAMP_INSTRUCTIONS, executed
    # still a frozen dataclass, compared and hashed by value
    ts = CoverTimestamp(*fields)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.mctr = 4  # type: ignore[misc]
    assert ts == CoverTimestamp(*fields)
    assert hash(ts) == hash(CoverTimestamp(*fields))
