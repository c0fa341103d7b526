"""Two deterministic budgets for the simulator's per-event loop.

Wall-clock gates flake; the number of Python-level function calls a seeded
run makes does not, nor does the number of objects it leaves behind for the
cyclic collector to traverse.  Both are taken on the 3/4/16 sequencer graph
with the inline-cover and vector clocks attached, 100 events per process,
seed 7; calls are ``call`` events counted by ``tests/meter.py``'s rule.

At ``c7d145e`` — a histogram observe per observation, a recursive element
count per payload, a closure and a liveness check per message — the run made
513,844 calls for 3,901 events: 131.7 per event.  With integer tallies in
the loop and histograms built once at the end it made 79.1 (×0.60); with
the online clock recording by position and the end of the run collecting
each assignment in one pass — no event id hashed for either — it made 71.1;
with every timestamp built once, when its event becomes final, the
assignment taking the clocks' table whole and the run's times kept by
position, it made 43.4; with every clock step recorded on three integers,
it made 38.3; with every scheduled callback a function and its arguments —
no ``TimerHandle`` unless a caller asks to cancel, no ``partial`` per
message, no closure per workload action — the finalized events drained once
per step for all clocks, a fault-free control handed straight to the
network and no call to a workload's no-op delivery hook, it made 30.8; with
``EventId``, ``Event`` and ``Message`` each built by one ``__init__`` that
checks inline (no ``__post_init__``) and the builder's per-event helpers
inlined, it makes 25.2: 98,168 calls on CPython 3.11 in any test order
(98,196 alone and 98,246 after ``tests/core`` before the meter's rule).

The collector's share never showed in a call count (cProfile books a
collection to whoever allocated).  At ``315f754`` the run kept 6.58
GC-tracked objects per event — a mutable record and its ``mpost`` list per
inline event beside the event, its id and one timestamp per clock — and a
19.5k-event run spent a fifth of its time in 242 / 22 / 2 collections; it
keeps 4.49 now.  Counted as ``len(gc.get_objects())`` after the run minus
before it, the collector off in between so that no collection untracks a
tuple on one side only.
"""

import gc
import random
from functools import partial

import pytest

from repro.clocks import CoverInlineClock, VectorClock
from repro.sim import RetryPolicy, Simulation, UniformWorkload
from repro.sim.scheduler import EventScheduler, TimerHandle
from repro.topology import generators
from tests import meter

PARENT_CALLS_PER_EVENT = 513_844 / 3_901
#: measured 25.2 on CPython 3.10, 3.11, 3.12 and 3.13; +5 %
CEILING_CALLS_PER_EVENT = 26.4
#: measured 4.49 on CPython 3.11 and 3.12; +5 %
CEILING_RETAINED_OBJECTS_PER_EVENT = 4.72


def _seeded_run(**kwargs):
    graph, cover = generators.sequencer_architecture(
        3, 4, 16, rng=random.Random(7)
    )
    sim = Simulation(
        graph,
        seed=7,
        clocks={
            "inline-cover": CoverInlineClock(graph, tuple(cover)),
            "vector": VectorClock(graph.n_vertices),
        },
        **kwargs,
    )
    return sim, UniformWorkload(events_per_process=100, p_local=0.3)


def test_calls_per_event_stay_under_the_ceiling():
    calls, res = meter.calls(lambda: partial(Simulation.run, *_seeded_run()))
    assert res.execution.n_events == 3_901
    per_event = calls / res.execution.n_events
    assert per_event <= 0.70 * PARENT_CALLS_PER_EVENT
    assert per_event <= CEILING_CALLS_PER_EVENT, per_event


def test_retained_objects_per_event_stay_under_the_ceiling():
    sim, workload = _seeded_run()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        res = sim.run(workload)
        gc.collect()
        retained = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert res.execution.n_events == 3_901
    per_event = retained / res.execution.n_events
    assert per_event <= CEILING_RETAINED_OBJECTS_PER_EVENT, per_event


@pytest.fixture
def timer_counts(monkeypatch):
    """How many ``TimerHandle``s are built and how many entries cancelled
    while still queued, counted by wrapping the two methods."""
    counts = {"handles": 0, "cancelled": 0}
    init, note_cancel = TimerHandle.__init__, EventScheduler._note_cancel

    def counting_init(self, scheduler):
        counts["handles"] += 1
        init(self, scheduler)

    def counting_note_cancel(self):
        counts["cancelled"] += 1
        note_cancel(self)

    monkeypatch.setattr(TimerHandle, "__init__", counting_init)
    monkeypatch.setattr(EventScheduler, "_note_cancel", counting_note_cancel)
    return counts


def test_a_fault_free_eager_run_builds_no_timer_handle(timer_counts):
    sim, workload = _seeded_run()
    res = sim.run(workload)
    assert res.stats["inline-cover"].control_messages == 1_399
    assert timer_counts == {"handles": 0, "cancelled": 0}


def test_a_retry_run_still_cancels_its_acknowledged_timers(timer_counts):
    # a timeout far beyond the run: a timer that was not cancelled would
    # stretch the run to it, and the dead entries force compactions
    timeout = 1000.0
    sim, workload = _seeded_run(control_retry=RetryPolicy(timeout=timeout))
    res = sim.run(workload)
    stats = res.stats["inline-cover"]
    assert (stats.control_messages, stats.control_acks) == (1_404, 1_404)
    assert stats.control_retransmissions == 0
    # one retransmission timer per datagram sent, each cancelled by its ack
    assert timer_counts == {"handles": 1_404, "cancelled": 1_404}
    assert res.duration < timeout
    scheduler = sim._scheduler
    assert scheduler.compactions == 15
    assert scheduler.heap_size == scheduler.pending == 0
