"""``fabric-sweep``: conformance-fuzzer cells through ``run_fabric(workers=2)``.

The cells are CPU-bound (a few fuzzer trials each), so two workers should
approach twice the serial loop; the traced run adds the serial loop, the
in-process ``workers=1`` path and a sweep of no-op ``fabric-selftest`` cells,
where all that is left is coordination cost.  Nothing else in the benchmark
touches ``repro.fabric``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

import inputs
import stats
from workloads.base import Checks, Rep, best_of, clocked, medians

from repro.fabric import ResultStore, WorkQueue, cell_key, execute_cell, run_fabric

WORKERS = 2


@contextmanager
def scratch_store() -> Iterator[ResultStore]:
    """A result store in a fresh directory under ``perf/out``, removed after."""
    inputs.OUT_DIR.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="fabric-", dir=inputs.OUT_DIR)
    try:
        yield ResultStore(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def loop_into(store: ResultStore, specs: List[Dict[str, Any]]) -> None:
    """The serial reference: run every cell here and store its result."""
    for spec in specs:
        store.put(cell_key(spec), spec, execute_cell(spec))


class FabricWorkload:
    unit = "cells"

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes

    def rep(self, tracer, seed: int) -> Rep:
        started = time.perf_counter()
        specs = inputs.fabric_specs(seed, self.sizes)
        with scratch_store() as store:
            setup_s = time.perf_counter() - started
            with tracer.span("fabric.workers2"):
                timed_s, report = clocked(
                    lambda: run_fabric(specs, store, workers=WORKERS)
                )
            results = report.load_results()
            digest = store.digest()

        checks = Checks()
        fabric = report.stats
        checks.count(
            len(specs),
            (len(specs) - fabric["cells_done"])
            + fabric["cells_retried"] + fabric["cells_reassigned"],
            "cells completed at the first attempt",
        )
        checks.count(
            self.sizes["trials"],
            (self.sizes["trials"] - sum(r["trials"] for r in results))
            + sum(len(r["mismatches"]) for r in results),
            "conformance trials run without a mismatch",
        )
        return Rep(
            setup_s, timed_s, len(specs), checks,
            exact={"cells": len(specs), "digest": digest},
            extra={"specs": specs, "stats": fabric},
        )

    # ------------------------------------------------------------------
    def layers(self, plain: List[Rep], traced: List[Rep], tracer) -> Dict[str, float]:
        specs = plain[-1].extra["specs"]
        digest = plain[-1].exact["digest"]
        noop = inputs.selftest_cells(self.seed, self.sizes)
        workers2_s = stats.median([r.timed_s for r in plain])

        def loop() -> float:
            with scratch_store() as store:
                with tracer.span("fabric.loop"):
                    wall, _ = clocked(lambda: loop_into(store, specs))
                if store.digest() != digest:
                    raise AssertionError(
                        "store built by the serial loop differs from the "
                        "workers=2 store"
                    )
            return wall

        def through_fabric(name: str, cells, workers: int) -> float:
            with scratch_store() as store, tracer.span(name):
                return clocked(lambda: run_fabric(cells, store, workers=workers))[0]

        # so far only the workers ran cells: load the cell code in this process
        execute_cell(specs[0])
        noop_results = [execute_cell(spec) for spec in noop]
        keys = [cell_key(spec) for spec in noop]

        def put_all() -> float:
            with scratch_store() as store:
                return clocked(lambda: [
                    store.put(key, spec, result)
                    for key, spec, result in zip(keys, noop, noop_results)
                ])[0]

        walls = medians({
            "loop": loop,
            "workers1": lambda: through_fabric("fabric.workers1", specs, 1),
            "noop_loop": lambda: clocked(lambda: [execute_cell(s) for s in noop])[0],
            "noop_workers2":
                lambda: through_fabric("fabric.selftest_workers2", noop, WORKERS),
            "put": put_all,
        })

        out = {
            "fabric_cells_per_s": stats.median([r.rate for r in plain]),
            "fabric_speedup_vs_loop": walls["loop"] / workers2_s,
            "fabric_overhead_ms_per_cell":
                (walls["noop_workers2"] - walls["noop_loop"]) / len(noop) * 1e3,
            "fabric.loop_s": walls["loop"],
            "fabric.workers1_s": walls["workers1"],
            "fabric.workers2_s": workers2_s,
            "fabric.cells_retried":
                sum(r.extra["stats"]["cells_retried"] for r in plain),
            "fabric.workers_spawned":
                sum(r.extra["stats"]["workers_spawned"] for r in plain),
        }
        out["fabric.store_put_us"] = walls["put"] / len(noop) * 1e6
        out["fabric.cell_key_us"] = (
            best_of(lambda: [cell_key(spec) for spec in noop]) / len(noop) * 1e6
        )

        def queue_cycle() -> None:
            queue = WorkQueue(dict(zip(keys, noop)))
            while True:
                leased = queue.lease("w0", 0.0)
                if leased is None:
                    break
                queue.complete(leased[0], "w0")

        out["fabric.queue_cycle_us"] = best_of(queue_cycle) / len(noop) * 1e6
        return out
