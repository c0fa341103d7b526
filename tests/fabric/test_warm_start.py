"""A fabric worker starts warm: its first cell loads only numpy's kernel.

Before it forks, the coordinator imports the modules each work kind
declares (``KIND_IMPORTS``).  These tests run in fresh interpreters, since
the test process has long loaded every ``repro`` module a cell needs:

- a kind's declared modules leave its cells nothing of ``repro`` to import
  but ``repro.core.npkernel`` (an undeclared deferred import fails here);
- in a two-worker sweep, each worker's first cell imports no other
  ``repro`` module, so the preload happened before the fork;
- the coordinator itself never imports numpy, and a ``--corpus``
  campaign replays its corpus (which does import numpy) only after the
  workers have exited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.conformance.registry import CLOCK_NAMES
from repro.fabric import WORK_KINDS
from repro.fabric.drivers import (
    chaos_cell_specs,
    conformance_chunk_specs,
    selftest_specs,
)

#: what a warm worker may still import: the numpy kernel, kept out of the
#: coordinator with numpy itself
WORKER_ONLY = {"repro.core.npkernel"}

SAMPLE_SPECS = {
    "chaos-scenario": chaos_cell_specs(
        "star", 5, 10, 0, list(CLOCK_NAMES), quick=True, reliable=False
    ) + chaos_cell_specs("star", 5, 10, 1, list(CLOCK_NAMES), quick=True),
    "conformance-chunk": [
        spec
        for backend in ("auto", "pure")
        for spec in conformance_chunk_specs(
            4, seed=0, topologies=("star", "tree", "random"), max_steps=30,
            backend=backend, chunk_size=2,
        )
    ],
    "fabric-selftest": selftest_specs(2),
}


def run_fresh(code: str, *args: str) -> dict:
    """Run *code* in a new interpreter; it prints one JSON object."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(done.stdout)


CELLS_AFTER_DECLARED = """
import importlib, json, sys
from repro.fabric.drivers import KIND_IMPORTS, execute_cell
specs = json.loads(sys.argv[1])
for module in KIND_IMPORTS[specs[0]["kind"]]:
    importlib.import_module(module)
before = set(sys.modules)
for spec in specs:
    execute_cell(spec)
print(json.dumps({
    "imported": sorted(m for m in set(sys.modules) - before
                       if m == "repro" or m.startswith("repro.")),
    "numpy_declared": "numpy" in before,
}))
"""


def test_every_kind_has_sample_cells():
    assert set(SAMPLE_SPECS) == set(WORK_KINDS)


@pytest.mark.parametrize("kind", sorted(SAMPLE_SPECS))
def test_declared_modules_are_all_a_cell_imports(kind):
    out = run_fresh(CELLS_AFTER_DECLARED, json.dumps(SAMPLE_SPECS[kind]))
    assert set(out["imported"]) <= WORKER_ONLY, out["imported"]
    assert not out["numpy_declared"]


SWEEP = """
import json, sys, tempfile
from repro.fabric import ResultStore, run_fabric
from repro.fabric.drivers import conformance_chunk_specs, execute_cell

first = [True]


def first_cell_imports(spec):
    before = set(sys.modules)
    execute_cell(spec)
    imported = sorted(m for m in set(sys.modules) - before
                      if m.startswith("repro."))
    was_first, first[0] = first[0], False
    return {"first": was_first, "imported": imported}


executor = first_cell_imports if sys.argv[1] == "wrapped" else None
specs = conformance_chunk_specs(
    8, seed=0, topologies=("star", "tree", "random"), max_steps=20,
    backend="auto", chunk_size=2,
)
with tempfile.TemporaryDirectory() as root:
    report = run_fabric(specs, ResultStore(root), executor=executor, workers=2)
    results = report.load_results()
print(json.dumps({
    "results": results,
    "spawned": report.stats["workers_spawned"],
    "coordinator_numpy": "numpy" in sys.modules,
}))
"""


def test_a_worker_first_cell_imports_only_the_numpy_kernel():
    out = run_fresh(SWEEP, "wrapped")
    firsts = [r for r in out["results"] if r["first"]]
    assert len(firsts) == out["spawned"] == 2
    imported = {m for r in out["results"] for m in r["imported"]}
    assert imported <= WORKER_ONLY, sorted(imported)


def test_the_coordinator_never_imports_numpy():
    out = run_fresh(SWEEP, "default")
    assert len(out["results"]) == 4
    assert not out["coordinator_numpy"]


CORPUS_CAMPAIGN = """
import contextlib, io, json, multiprocessing.process, sys
from repro.cli import main

start = multiprocessing.process.BaseProcess.start
numpy_at_start = []


def checked_start(self):
    # a forked worker starts with what its coordinator holds right now
    numpy_at_start.append("numpy" in sys.modules)
    start(self)


multiprocessing.process.BaseProcess.start = checked_start
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = main(sys.argv[1:])
print(json.dumps({"status": status, "numpy_at_start": numpy_at_start,
                  "stdout": out.getvalue()}))
"""


def test_a_corpus_campaign_starts_no_worker_with_numpy(tmp_path):
    """The corpus is loaded before the sweep and replayed after it: its
    replay runs the backend differential, which imports numpy."""
    corpus = Path(__file__).resolve().parents[1] / "conformance" / "corpus"
    out = run_fresh(
        CORPUS_CAMPAIGN, "conformance", "--trials", "4", "--steps", "20",
        "--backend", "auto", "--corpus", str(corpus), "--workers", "2",
        "--chunk-size", "2", "--fabric", str(tmp_path / "store"),
    )
    assert out["status"] == 0, out["stdout"]
    assert out["numpy_at_start"] == [False, False]
    lines = out["stdout"].splitlines()
    corpus_line = next(i for i, line in enumerate(lines) if line.startswith("corpus:"))
    assert lines[corpus_line + 1].startswith("conformance: 4 trial(s)")
