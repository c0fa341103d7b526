"""``event_times`` and ``finalization_times`` still read like the old dicts.

Until ``315f754`` the runner filled two ``Dict[EventId, float]`` as it went —
one hashed store per event, one per clock per finalization — and handed them
out.  They are now one read-only mapping over ``rows[p][k - 1]`` with the
ids beside it in insertion order.  A ``Simulation`` that also keeps the old
dicts, filled at the same instants the old runner filled them, runs a
fault-free and a faulty case; the mapping must answer as the dict does.

The float histogram that is replayed from the two tables at the end of the
run (the exact zeros folded in at once) is checked against a value-by-value
replay for every registered scheme.
"""

import random

import pytest

from repro.clocks import CoverInlineClock, VectorClock
from repro.conformance.registry import schemes_for
from repro.core.events import EventId
from repro.obs.metrics import VTIME_BUCKETS, Histogram
from repro.sim import RetryPolicy, Simulation, UniformWorkload
from repro.topology import generators

from tests.sim.test_metrics_golden import _faults, sequencer_graph


class _DictKeeping(Simulation):
    """Fills ``old_event_times`` / ``old_final_times`` as the old runner did:
    an event's time as it occurs, and after every step of a clock the time
    of each event the clock has just finalized."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.old_event_times = {}
        self.old_final_times = {}

    def _occurred(self, eid):
        self.old_event_times[eid] = self.now

    def do_local(self, proc):
        ev = super().do_local(proc)
        if ev is not None:
            self._occurred(ev.eid)
        return ev

    def do_send(self, src, dst):
        ev = super().do_send(src, dst)
        if ev is not None:
            self._occurred(ev.eid)
        return ev

    def _deliver(self, msg_id, dst, piggyback):
        super()._deliver(msg_id, dst, piggyback)  # UniformWorkload: no reaction
        self._occurred(self._builder.message(msg_id).recv_event)

    def run(self, workload):
        sinks = {
            id(clock): self.old_final_times.setdefault(name, {})
            for name, clock in self._clock_map.items()
        }

        def noting(step):
            def noted(clock, *args):
                out = step(clock, *args)
                times = sinks[id(clock)]
                for p, k in clock._newly_finalized:
                    times[EventId(p, k)] = self.now
                return out
            return noted

        # patched on the classes: a checkpoint pickles the instances' state
        with pytest.MonkeyPatch.context() as mp:
            for cls in {type(clock) for clock in self._clock_map.values()}:
                for step in ("record_local", "record_send", "record_receive", "on_control"):
                    mp.setattr(cls, step, noting(getattr(cls, step)))
            return super().run(workload)


def _run(seed, **kwargs):
    graph, cover = sequencer_graph(seed)
    sim = _DictKeeping(
        graph,
        seed=seed,
        clocks={
            "inline-cover": CoverInlineClock(graph, tuple(cover)),
            "vector": VectorClock(graph.n_vertices),
        },
        **kwargs,
    )
    return sim, sim.run(UniformWorkload(events_per_process=30, p_local=0.3))


def _reads_like(table, old, execution):
    assert table == old and old == table
    assert len(table) == len(old) > 0
    assert list(table) == list(old)
    assert list(table.keys()) == list(old.keys())
    assert list(table.items()) == list(old.items())
    assert list(table.values()) == list(old.values())
    for eid, t in old.items():
        assert eid in table and table[eid] == t and table.get(eid) == t
    bottom = [ev.eid for ev in execution.all_events() if ev.eid not in old]
    unknown = [EventId(execution.n_processes, 1), EventId(0, execution.n_events + 1)]
    for eid in bottom + unknown:
        assert eid not in table and table.get(eid) is None
        with pytest.raises(KeyError):
            table[eid]
    assert table != {**old, unknown[0]: 0.0}
    # read-only: what the run recorded is not the caller's to edit
    assert not hasattr(table, "__setitem__")
    with pytest.raises(TypeError):
        table[unknown[0]] = 0.0
    return bottom


@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(fault_model=_faults(), control_retry=RetryPolicy())],
    ids=["fault-free", "faults-retry"],
)
def test_the_tables_answer_as_the_dicts_did(kwargs):
    sim, res = _run(1, **kwargs)
    assert not _reads_like(res.event_times, sim.old_event_times, res.execution)
    assert res.finalization_times.keys() == sim.old_final_times.keys()
    for name, table in res.finalization_times.items():
        bottom = _reads_like(table, sim.old_final_times[name], res.execution)
        # the inline clock leaves the run's tail to termination: real ⊥ rows
        assert bool(bottom) == (name == "inline-cover")
        assert res.finalization_latencies(name) == {
            eid: t - sim.old_event_times[eid]
            for eid, t in sim.old_final_times[name].items()
        }
        assert res.assignments[name].finalized_during_run == set(
            sim.old_final_times[name]
        )


def test_the_delay_histogram_is_the_value_by_value_replay():
    """``clock.finalization_delay_vtime`` is built from the two tables after
    the run, the delays that are exactly ``0.0`` folded in by one
    ``observe_n``.  ``x + 0.0 == x``: ``sum``, ``min``, ``max`` and every
    bucket must be what one ``observe`` per finalization, in finalization
    order, leaves — for all nine schemes, online and inline."""
    graph = generators.star(6)
    clocks = {spec.name: spec.build(graph, 0) for spec in schemes_for(graph, True)}
    assert len(clocks) == 9
    res = Simulation(
        graph, seed=5, clocks=clocks, fifo_app_channels=True
    ).run(UniformWorkload(events_per_process=15))
    for name, times in res.finalization_times.items():
        built = res.metrics.histogram(
            "clock.finalization_delay_vtime", clock=name, buckets=VTIME_BUCKETS
        )
        replayed = Histogram(VTIME_BUCKETS)
        for eid, t_final in times.items():
            replayed.observe(t_final - res.event_times[eid])
        assert built.counts == replayed.counts
        assert (built.count, built.sum) == (replayed.count, replayed.sum)
        assert (built.min, built.max) == (replayed.min, replayed.max)
        zeros = sum(t == res.event_times[eid] for eid, t in times.items())
        assert (zeros == len(times)) == (name not in ("inline-star", "inline-cover"))
