"""A call budget for the simulator's per-event loop.

Wall-clock gates flake; the number of Python-level function calls a seeded
run makes does not.  Counted with ``sys.setprofile`` (``call`` events only,
the way the benchmark counts ``net.py_calls_per_op``) for the 3/4/16
sequencer graph with the inline-cover and vector clocks attached, 100
events per process, seed 7.

At ``c7d145e`` — a histogram observe per observation, a recursive element
count per payload, a closure and a liveness check per message — the run made
513,844 calls for 3,901 events: 131.7 per event.  With integer tallies in
the loop and histograms built once at the end it made 79.1 (×0.60); with
the online clock recording by position and the end of the run collecting
each assignment in one pass — no event id hashed for either — it makes 71.1.
"""

import random
import sys

from repro.clocks import CoverInlineClock, VectorClock
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators

PARENT_CALLS_PER_EVENT = 513_844 / 3_901
#: measured 71.1 on CPython 3.11 and 3.12; +5 %
CEILING_CALLS_PER_EVENT = 74.7


def test_calls_per_event_stay_under_the_ceiling():
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
    )
    workload = UniformWorkload(events_per_process=100, p_local=0.3)
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        res = sim.run(workload)
    finally:
        sys.setprofile(previous)
    assert res.execution.n_events == 3_901
    per_event = calls / res.execution.n_events
    assert per_event <= 0.70 * PARENT_CALLS_PER_EVENT
    assert per_event <= CEILING_CALLS_PER_EVENT, per_event
