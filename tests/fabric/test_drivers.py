"""Work kinds: spec round trips and equivalence with the serial drivers."""

from __future__ import annotations

import pytest

from repro.fabric import ResultStore, cell_key, execute_cell, run_fabric
from repro.fabric.drivers import (
    WORK_KINDS,
    chaos_cell_specs,
    conformance_chunk_specs,
    merge_chaos_results,
    merge_conformance_results,
    selftest_specs,
    work_kind,
)


def test_registry_has_all_shipped_kinds():
    assert {"chaos-scenario", "conformance-chunk",
            "fabric-selftest"} <= set(WORK_KINDS)


def test_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown fabric work kind"):
        execute_cell({"kind": "no-such-kind"})


def test_work_kind_decorator_registers():
    @work_kind("test-only-kind")
    def fn(spec):
        return spec["x"] * 2

    try:
        assert execute_cell({"kind": "test-only-kind", "x": 21}) == 42
    finally:
        del WORK_KINDS["test-only-kind"]


def test_selftest_specs_deterministic():
    a = selftest_specs(3, seed=7)
    b = selftest_specs(3, seed=7)
    assert a == b
    assert execute_cell(a[1]) == execute_cell(b[1])
    assert execute_cell(a[1]) != execute_cell(a[2])


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def _chaos_args():
    return dict(
        topology="star", n=4, events=6, seed=0,
        clocks=["inline", "vector", "lamport", "vector-sk"], quick=True,
    )


def test_chaos_specs_one_per_scenario():
    specs = chaos_cell_specs(**_chaos_args())
    assert [s["scenario"] for s in specs] == [
        "burst-loss-30", "duplication", "crash-recovery"
    ]
    assert len({cell_key(s) for s in specs}) == len(specs)


def test_chaos_fabric_equals_run_chaos(tmp_path):
    """The merged fabric report, and the trace built from the store's cell
    fragments, match run_chaos."""
    from functools import partial

    from repro.conformance.registry import build_clock
    from repro.faults.chaos import default_scenarios, run_chaos
    from repro.obs import RunTracer
    from repro.sim.network import RetryPolicy
    from repro.topology.generators import build_topology

    args = _chaos_args()
    graph = build_topology(args["topology"], args["n"], args["seed"])
    factories = {
        name: partial(build_clock, name, graph) for name in args["clocks"]
    }
    header = dict(kind="chaos", run_id="pinned", meta={"seed": args["seed"]})
    tracer = RunTracer(**header)
    serial = run_chaos(
        graph,
        factories,
        scenarios=default_scenarios(graph.n_vertices, quick=True),
        events_per_process=args["events"],
        seed=args["seed"],
        retry=RetryPolicy(),
        tracer=tracer,
    )

    specs = chaos_cell_specs(**_chaos_args())
    store = ResultStore(tmp_path / "s")
    fabric_report = run_fabric(specs, store)
    merged = merge_chaos_results(
        fabric_report.iter_results(), skipped=serial.skipped
    )
    assert merged.cells == serial.cells
    assert merged.skipped == sorted(serial.skipped)
    assert merged.metrics.as_dict() == serial.metrics.as_dict()
    assert merged.ok == serial.ok

    # what `repro chaos --trace-out` writes, each stored cell's fragment in
    # input order, is byte for byte the in-process tracer's file
    tracer.write(tmp_path / "serial.jsonl")
    fabric = RunTracer(**header)
    fabric.event("skipped-clocks", clocks=merged.skipped)
    for key in fabric_report.keys:
        fabric.extend(store.get(key)["trace"])
    fabric.event(
        "sweep-summary",
        cells=len(merged.cells),
        failures=len(merged.failures()),
        ok=merged.ok,
    )
    fabric.write(tmp_path / "fabric.jsonl")
    assert (tmp_path / "fabric.jsonl").read_bytes() == (
        tmp_path / "serial.jsonl"
    ).read_bytes()


def test_chaos_spec_rejects_unknown_scenario():
    spec = dict(chaos_cell_specs(**_chaos_args())[0])
    spec["scenario"] = "not-a-scenario"
    with pytest.raises(ValueError, match="unknown chaos scenario"):
        execute_cell(spec)


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------
def test_conformance_chunk_boundaries():
    specs = conformance_chunk_specs(
        55, seed=3, topologies=["star"], max_steps=10, backend="pure",
        chunk_size=25,
    )
    assert [(s["lo"], s["hi"]) for s in specs] == [
        (0, 25), (25, 50), (50, 55)
    ]
    with pytest.raises(ValueError):
        conformance_chunk_specs(
            10, seed=0, topologies=["star"], max_steps=5, backend="pure",
            chunk_size=0,
        )


def test_conformance_chunks_union_equals_serial_fuzz(tmp_path):
    from repro.conformance.fuzzer import fuzz

    serial = fuzz(trials=30, seed=11, topologies=("star", "tree"),
                  max_steps=16, backend="pure")
    specs = conformance_chunk_specs(
        30, seed=11, topologies=["star", "tree"], max_steps=16,
        backend="pure", chunk_size=7,
    )
    store = ResultStore(tmp_path / "s")
    report = run_fabric(specs, store)
    merged = merge_conformance_results(report.iter_results())
    assert merged.trials == serial.trials
    assert merged.events_checked == serial.events_checked
    assert merged.checks == serial.checks
    assert merged.mismatches == serial.mismatches


def test_mismatch_record_round_trip():
    from repro.conformance.fuzzer import Mismatch, mismatch_from_record

    mm = Mismatch(
        invariant="exact-vs-hb",
        scheme="inline",
        detail="0->3 hb=True claimed=False",
        n_processes=3,
        edges=((0, 1), (0, 2)),
        ops=(("local", 1), ("send", 0, 0, 1), ("recv", 0)),
        fifo=False,
        context={"trial": 4, "seed": 9, "topology": "star",
                 "fault": "none"},
    )
    assert mismatch_from_record(mm.to_record()) == mm


@pytest.mark.parametrize(
    "topology, n", [("tree", 5), ("path", 3), ("cycle", 4), ("double-star", 6)]
)
def test_chaos_specs_refuse_a_star_clock_off_the_star(topology, n):
    with pytest.raises(ValueError, match=f"'inline-star' cannot run on topology '{topology}'"):
        chaos_cell_specs(topology, n, 10, 0, ["vector", "inline-star"], quick=True)
    assert chaos_cell_specs(topology, n, 10, 0, ["vector", "inline"], quick=True)


@pytest.mark.parametrize("topology, n", [("star", 5), ("path", 2)])
def test_chaos_specs_keep_a_star_clock_on_a_star(topology, n):
    assert chaos_cell_specs(topology, n, 10, 0, ["inline-star"], quick=True)
