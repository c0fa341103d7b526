"""Golden digests of everything a simulation run reports.

The runner keeps integer tallies in its per-event loop and builds the
histograms once, after the run.  That is only safe if the result is the
same to the last bit, so each case below pins the sha256 of the run's
metrics export, per-clock stats, finalization times and event times — the
dicts serialized as lists, so insertion order is pinned too.  The digests
were recorded at the commit before the tallies went in (``c7d145e``), on
both the fault-free delivery path and every slow path it bypasses; the
``client-server`` case (the only one not on ``UniformWorkload``) was
recorded at ``cddb61f``, before its per-client server lists moved into
``setup()``, and pins that workload's RNG draw order.
"""

import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from repro.clocks import CoverInlineClock, SKVectorClock, VectorClock
from repro.faults.models import (
    CompositeFault,
    CrashSchedule,
    DuplicationFault,
    PartitionFault,
)
from repro.sim import (
    ClientServerWorkload,
    ControlTransport,
    RetryPolicy,
    Simulation,
    UniformWorkload,
)
from repro.topology import generators


def sequencer_graph(seed):
    """The 3/4/16 sequencer architecture the benchmark's sim workloads use."""
    return generators.sequencer_architecture(3, 4, 16, rng=random.Random(seed))


def _faults():
    return CompositeFault([
        CrashSchedule({0: [(6.0, 11.0)], 9: [(3.0, 14.0)], 20: [(8.0, 9.5)]}),
        DuplicationFault(rate=0.3, copies=3),
        PartitionFault([range(0, 12), range(12, 23)], start=4.0, duration=5.0),
    ])


CASES = {
    "eager": dict(),
    "piggyback": dict(control_transport=ControlTransport.PIGGYBACK),
    "piggyback-app-loss": dict(
        control_transport=ControlTransport.PIGGYBACK, app_loss_rate=0.2
    ),
    "retry-control-loss": dict(
        control_retry=RetryPolicy(), control_loss_rate=0.2
    ),
    "control-loss": dict(control_loss_rate=0.2),
    "faults": dict(fault_model=_faults),
    "faults-retry": dict(fault_model=_faults, control_retry=RetryPolicy()),
    "fifo-sk": dict(fifo_app_channels=True),
    "client-server": dict(),
}

GOLDEN = {
    ("client-server", 1): "1faeb6842f2be4da58527495a93cc09d0a34f48c6cdd050c092de7d251330a7a",
    ("client-server", 2): "13622b40ff820bf4d1b4ded485e9819e696bc6035f6455784239947c9b0448dd",
    ("control-loss", 1): "1b6e7618c06afdfe0a758855d58a9a84ba28c60ecfc8d3dfda97f8aabb575a14",
    ("control-loss", 2): "ca1b3c54b03546b2894f8cecd854d1dd7cb600308e981d2fe6327626db87108c",
    ("eager", 1): "87814dcb43250a8d2b811c27a006df4aecb3b0d5dae5718a941aae5b5a8f4fca",
    ("eager", 2): "5a707fb4071df32584a74e821adb58d88b86b90d4867e83a65017be32e1159aa",
    ("faults", 1): "e7db9d39f1e7dfb06c97850b604adab5b9bb93aff9239fa63562b1189f0c2591",
    ("faults", 2): "48c6644b5e121e70f1042ea516418bb40a497023af9f1d850061d9352c013d7c",
    ("faults-retry", 1): "43b55b1796d1eb18465e565352d9f4c67fa52b34ca75b7285adc593bef362f78",
    ("faults-retry", 2): "c9c63e383b2a11fe1e06c680c425a3f792be01a32a043c2a55a3fee54d5ade41",
    ("fifo-sk", 1): "214bc7d83515b4be40eb39cbdda7daa7ce99760652180e20b19733749a837633",
    ("fifo-sk", 2): "0075d086808026bb3249395d035393d8dbab8b4dc3ce5131b8b9080e0adabae0",
    ("piggyback", 1): "fd3a5f0f6914245a9a3e81650cef6faca84cdac10056059b179c16e5b57d7181",
    ("piggyback", 2): "c4369dcdafe90c109cc70ad59a411affd776d60c419c314342b38c9fa08ade48",
    ("piggyback-app-loss", 1): "2560a20b9b5194efb474a01e69999e6871f36e5a543558288c9e7c4fc6a50a9e",
    ("piggyback-app-loss", 2): "8507fa6050ca163a3d518ca5a43df7fe9f48d83101e7c42e708795539837a763",
    ("retry-control-loss", 1): "f3509b792e96aae0df17fbfb6cc96cfaba26cf4ec833a69b50555854cf1abba6",
    ("retry-control-loss", 2): "a8764a9faec3f878a64f3563623ce67bf12d62f92ee125d44cd6c340a69cfb3e",
}


def run_case(name, seed):
    graph, cover = sequencer_graph(seed)
    clocks = {
        "inline-cover": CoverInlineClock(graph, tuple(cover)),
        "vector": VectorClock(graph.n_vertices),
    }
    if name == "fifo-sk":
        clocks["vector-sk"] = SKVectorClock(graph.n_vertices)
    kwargs = {
        k: v() if callable(v) else v for k, v in CASES[name].items()
    }
    sim = Simulation(graph, seed=seed, clocks=clocks, **kwargs)
    if name == "client-server":
        return sim.run(
            ClientServerWorkload(requests_per_client=20, reply_prob=0.7)
        )
    return sim.run(UniformWorkload(events_per_process=30, p_local=0.3))


def digest(res):
    def listed(times):
        return [[eid.proc, eid.index, t] for eid, t in times.items()]

    doc = {
        "metrics": res.metrics.as_dict(),
        "stats": {
            name: dataclasses.asdict(st) for name, st in res.stats.items()
        },
        "finalization_times": {
            name: listed(times)
            for name, times in res.finalization_times.items()
        },
        "event_times": listed(res.event_times),
        "counts": [
            res.app_messages,
            res.dropped_app_messages,
            res.dropped_control_messages,
            res.duplicate_app_deliveries,
            res.crash_dropped_app_messages,
            res.suppressed_events,
            res.piggyback_controls_retained,
            len(res.crash_checkpoints),
        ],
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_the_recorded_digest(name, seed):
    assert digest(run_case(name, seed)) == GOLDEN[name, seed]


def test_slow_paths_are_actually_taken():
    """The fault case must exercise what the fault-free shortcut skips."""
    res = run_case("faults", 1)
    assert res.duplicate_app_deliveries > 0
    assert res.crash_dropped_app_messages > 0
    assert res.suppressed_events > 0
    assert res.dropped_app_messages > 0
    assert len(res.crash_checkpoints) == 3
    lossy = run_case("retry-control-loss", 1)
    assert lossy.stats["inline-cover"].control_retransmissions > 0
    assert run_case("control-loss", 1).dropped_control_messages > 0
    assert run_case("piggyback-app-loss", 1).piggyback_controls_retained > 0


def test_metrics_command_prints_the_checked_in_export(capsys):
    """What CI's ``trace-determinism`` job ``cmp``s, checked here too."""
    from repro.cli import main

    golden = pathlib.Path(__file__).parent / "golden" / "metrics_seed7.json"
    assert main(
        ["metrics", "--topology", "tree", "--n", "12", "--events", "20",
         "--seed", "7"]
    ) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_no_scheme_reports_an_event_final_twice():
    """The virtual-time delays are replayed from ``finalization_times``, one
    per event; a scheme that drained the same event twice would have made
    two live observations.  The event-count tally still sees every drain."""
    from repro.conformance.registry import schemes_for

    graph = generators.star(6)
    clocks = {spec.name: spec.build(graph, 0) for spec in schemes_for(graph, True)}
    assert len(clocks) == 9
    res = Simulation(
        graph, seed=5, clocks=clocks, fifo_app_channels=True
    ).run(UniformWorkload(events_per_process=15))
    for name, times in res.finalization_times.items():
        drained = res.metrics.histogram(
            "clock.finalization_delay_events", clock=name
        ).count
        replayed = res.metrics.histogram(
            "clock.finalization_delay_vtime", clock=name
        ).count
        assert drained == replayed == len(times) > 0


if __name__ == "__main__":  # prints the table pinned above
    for case in sorted(CASES):
        for s in (1, 2):
            print(f'    ("{case}", {s}): "{digest(run_case(case, s))}",')
