"""Deterministic budgets for one operation of the live store.

Wall-clock gates flake; on a :class:`~repro.net.virtual.VirtualLoop` the
number of Python-level function calls a seeded run makes does not, nor does
the number of objects the run keeps for the cyclic collector to traverse.
Both are taken on the benchmark's 3/4/16 sequencer deployment, 10 operations
per client (160 in all) over 8 keys, seed 7, with ``inline-cover`` and with
``vector``; calls are counted with ``sys.setprofile`` (``call`` events only,
coroutine resumptions included, the way the benchmark counts
``net.py_calls_per_op``).  Objects are counted as ``len(gc.get_objects())``
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
That no hop builds an ``Event`` is pinned on its own: the run completes
with ``Event`` construction made to raise.

The wire must not move: frames and events are pinned exactly.
"""

import gc
import sys

import pytest

from repro.applications.causal_kv import StoreConfig
from repro.core.events import Event
from repro.net import VirtualLoop, run_live_store, supervisor

CONFIG = StoreConfig(
    n_sequencers=3, n_servers=4, n_clients=16, n_keys=8, ops_per_client=10, seed=7
)
OPS = 160
EVENTS = 3_752
#: clock -> frames sent, measured at the parent and unchanged since
FRAMES = {"inline-cover": 1_916, "vector": 1_904}
#: measured 1,308.7 / 1,181.8 on CPython 3.11; +5 %
CEILING_CALLS_PER_OP = {"inline-cover": 1_374.1, "vector": 1_240.9}
#: measured 48.8 / 42.0 on CPython 3.11; +5 %
CEILING_ALIVE_PER_OP = {"inline-cover": 51.2, "vector": 44.1}


def _run(clock):
    loop = VirtualLoop()
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

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run(clock)
    finally:
        sys.setprofile(previous)
    per_op = calls / OPS
    assert per_op <= CEILING_CALLS_PER_OP[clock], per_op


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

    def refuse(self):
        raise AssertionError(f"a live run built {self!r}")

    monkeypatch.setattr(Event, "__post_init__", refuse)
    _run(clock)
