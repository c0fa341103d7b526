"""Spec-driven work kinds: what a fabric cell actually computes.

A fabric cell is described entirely by a JSON spec — no pickled
closures, no shared memory — so the *same* cell runs in this process or
in a worker process, and the content hash of the spec is the cell's
identity everywhere.  This module is the
dispatch table from ``spec["kind"]`` to the function that rebuilds the
work from the spec and returns a JSON-safe result.

Registered kinds:

- ``chaos-scenario`` — one fault scenario × every usable clock of a
  chaos sweep (the PR-1/PR-3 harness); returns the scenario's cells,
  its headerless trace fragment, and its metrics export.
- ``conformance-chunk`` — a contiguous range of differential-fuzzer
  trials (PR-5); returns the chunk's check counts and shrunk mismatch
  records.
- ``fabric-selftest`` — a tiny deterministic computation used by the
  crash-resume test suite and the fabric-smoke CI job.

Every executor is a pure function of its spec (given the repo's code),
which is what makes reassignment, retry, and resume byte-safe.  When a
code change alters what a kind computes, bump that kind's ``"v"`` so
old store entries stop matching.

Each kind also declares the modules its cells import
(:data:`KIND_IMPORTS`); a multi-worker run loads them in the coordinator
before it forks, so a worker's first cell compiles none of them.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.bench import cell_seed

WorkFn = Callable[[Mapping[str, Any]], Any]

WORK_KINDS: Dict[str, WorkFn] = {}

#: the modules each kind's cells import, by kind
KIND_IMPORTS: Dict[str, Tuple[str, ...]] = {}


def work_kind(
    name: str, imports: Sequence[str] = ()
) -> Callable[[WorkFn], WorkFn]:
    """Register an executor for ``spec["kind"] == name``.

    *imports* names the modules the executor's cells import, its deferred
    imports and theirs included: imported together they must leave a cell
    nothing of ``repro`` to load but :mod:`repro.core.npkernel`.  The
    coordinator of a multi-worker run imports them once, before its first
    fork, so the forked workers inherit them compiled.  List no module
    that imports numpy at module level: numpy stays in the workers, where
    the first cell that needs it loads it, because a coordinator holding
    it grows by ≈ 11 MB resident.
    """

    def register(fn: WorkFn) -> WorkFn:
        WORK_KINDS[name] = fn
        KIND_IMPORTS[name] = tuple(imports)
        return fn

    return register


def execute_cell(spec: Mapping[str, Any]) -> Any:
    """Dispatch one cell spec to its registered work function."""
    kind = spec.get("kind")
    fn = WORK_KINDS.get(kind)
    if fn is None:
        raise ValueError(
            f"unknown fabric work kind {kind!r} "
            f"(known: {', '.join(sorted(WORK_KINDS))})"
        )
    return fn(spec)


# ----------------------------------------------------------------------
# chaos sweeps (scenario × clocks per cell)
# ----------------------------------------------------------------------
def chaos_cell_specs(
    topology: str,
    n: int,
    events: int,
    seed: int,
    clocks: Sequence[str],
    quick: bool = False,
    reliable: bool = True,
    retry_timeout: float = 4.0,
    retry_max: int = 4,
) -> List[Dict[str, Any]]:
    """One spec per default chaos scenario, in sweep (input) order.

    A clock that cannot run on *topology* — ``inline-star`` anywhere but on
    a star centered at process 0, where its cells build it — is a
    ``ValueError`` naming both, before any cell exists to fail.
    """
    from repro.conformance.registry import scheme_by_name, star_center_of
    from repro.faults.chaos import default_scenarios
    from repro.topology.generators import build_topology

    graph = build_topology(topology, n, seed)
    for name in clocks:
        if scheme_by_name(name).star_only and star_center_of(graph) != 0:
            raise ValueError(
                f"clock {name!r} cannot run on topology {topology!r}: it "
                "needs a star centered at process 0"
            )
    return [
        {
            "kind": "chaos-scenario",
            "v": 1,
            "topology": topology,
            "n": n,
            "events": events,
            "seed": seed,
            "reliable": reliable,
            "retry_timeout": retry_timeout,
            "retry_max": retry_max,
            "clocks": list(clocks),
            "quick": bool(quick),
            "scenario": scenario.name,
        }
        for scenario in default_scenarios(n, quick=quick)
    ]


@work_kind(
    "chaos-scenario",
    imports=(
        "repro.conformance.registry",
        "repro.faults.chaos",
        "repro.sim.runner",  # deferred in repro.faults.chaos
        "repro.topology.generators",
        "repro.topology.vertex_cover",  # deferred in the inline-cover clock
    ),
)
def _run_chaos_scenario(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Rebuild one chaos scenario from its spec and run it.

    Everything is reconstructed from names alone, so a worker process
    needs nothing but the spec.
    """
    from repro.conformance.registry import build_clock
    from repro.faults.chaos import (
        chaos_workload,
        default_scenarios,
        run_scenario,
        split_fifo_clocks,
    )
    from repro.sim.network import RetryPolicy
    from repro.topology.generators import build_topology

    graph = build_topology(spec["topology"], spec["n"], spec["seed"])
    scenarios = {
        s.name: s
        for s in default_scenarios(graph.n_vertices, quick=spec["quick"])
    }
    if spec["scenario"] not in scenarios:
        raise ValueError(f"unknown chaos scenario {spec['scenario']!r}")
    usable, _skipped = split_fifo_clocks(
        {name: partial(build_clock, name, graph) for name in spec["clocks"]}
    )
    cells, records, metrics = run_scenario(
        graph,
        scenarios[spec["scenario"]],
        usable,
        spec["seed"],
        spec["reliable"],
        RetryPolicy(
            timeout=spec["retry_timeout"], max_retries=spec["retry_max"]
        ),
        chaos_workload(spec["events"]),
    )
    return {
        "cells": [asdict(cell) for cell in cells],
        "trace": records,
        "metrics": metrics,
    }


def merge_chaos_results(results, skipped=()) -> Any:
    """Fold chaos-scenario results (in input order) into a ChaosReport.

    Equivalent to :func:`repro.faults.chaos.run_chaos` folding its
    scenarios: cells extend in scenario order and each scenario's metrics
    export merges in the same order, so the report — registry included —
    matches the in-process sweep exactly.
    """
    from repro.faults.chaos import ChaosCell, ChaosReport

    report = ChaosReport(skipped=sorted(skipped))
    for result in results:
        report.cells.extend(
            ChaosCell(**cell) for cell in result["cells"]
        )
        report.metrics.merge(result["metrics"])
    return report


# ----------------------------------------------------------------------
# conformance fuzz campaigns (trial ranges per cell)
# ----------------------------------------------------------------------
def conformance_chunk_specs(
    trials: int,
    seed: int,
    topologies: Sequence[str],
    max_steps: int,
    backend: str,
    shrink: bool = True,
    chunk_size: int = 25,
) -> List[Dict[str, Any]]:
    """Shard ``trials`` into contiguous ``[lo, hi)`` chunks.

    Per-trial RNGs derive from the absolute trial index
    (:func:`repro.bench.cell_seed`), so the union of chunk results is
    exactly the serial campaign regardless of chunking or placement.
    Coordinates no trial can run on (see
    :func:`repro.conformance.campaign.check_campaign`) raise here, before
    any cell is built.
    """
    from repro.conformance.campaign import check_campaign

    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    check_campaign(topologies, max_steps)
    return [
        {
            "kind": "conformance-chunk",
            "v": 1,
            "seed": seed,
            "topologies": list(topologies),
            "max_steps": max_steps,
            "backend": backend,
            "shrink": bool(shrink),
            "lo": lo,
            "hi": min(lo + chunk_size, trials),
        }
        for lo in range(0, trials, chunk_size)
    ]


@work_kind(
    "conformance-chunk",
    imports=(
        "repro.conformance.fuzzer",
        "repro.conformance.shrinker",  # deferred in run_trials
        "repro.topology.vertex_cover",  # deferred in the inline-cover clock
    ),
)
def _run_conformance_chunk(spec: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.conformance.fuzzer import ConformanceReport, run_trials

    report = ConformanceReport()
    run_trials(
        report,
        spec["lo"],
        spec["hi"],
        seed=spec["seed"],
        topologies=tuple(spec["topologies"]),
        max_steps=spec["max_steps"],
        shrink=spec["shrink"],
        backend=spec["backend"],
    )
    return {
        "trials": report.trials,
        "events_checked": report.events_checked,
        "checks": dict(sorted(report.checks.items())),
        "mismatches": [mm.to_record() for mm in report.mismatches],
    }


def merge_conformance_results(results) -> Any:
    """Fold chunk results (in input order) into one ConformanceReport."""
    from repro.conformance.fuzzer import (
        ConformanceReport,
        mismatch_from_record,
    )

    report = ConformanceReport()
    for chunk in results:
        report.trials += chunk["trials"]
        report.events_checked += chunk["events_checked"]
        for invariant, count in chunk["checks"].items():
            report.count(invariant, count)
        for record in chunk["mismatches"]:
            report.mismatches.append(mismatch_from_record(record))
    return report


# ----------------------------------------------------------------------
# self-test cells (CI smoke + crash-resume property suite)
# ----------------------------------------------------------------------
def selftest_specs(count: int, seed: int = 0,
                   sleep: float = 0.0) -> List[Dict[str, Any]]:
    specs: List[Dict[str, Any]] = []
    for index in range(count):
        spec: Dict[str, Any] = {
            "kind": "fabric-selftest",
            "v": 1,
            "seed": seed,
            "index": index,
        }
        if sleep:
            spec["sleep"] = sleep
        specs.append(spec)
    return specs


@work_kind("fabric-selftest")
def _run_selftest(spec: Mapping[str, Any]) -> Dict[str, Any]:
    if spec.get("sleep"):
        import time

        time.sleep(float(spec["sleep"]))
    value = cell_seed("fabric-selftest", spec["seed"], spec["index"])
    return {"index": spec["index"], "value": value % 1_000_003}
