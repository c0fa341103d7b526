"""The first part of set-up: importing a workload and the library it needs.

    python3 perf/imports.py <workload> <preset>

``harness.py`` runs this in a sacrificial interpreter and reads one JSON list
of ``[seconds, host slowdown]`` pairs, one per sample.  Before each sample the
library's and the workloads' modules are dropped from ``sys.modules``, so
their code runs again; the standard library and numpy stay loaded after the
first sample, which the median therefore leaves out.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import host  # noqa: E402
import inputs  # noqa: E402

SAMPLES = 7


def timed_import(name: str, preset: str) -> float:
    started = time.perf_counter()
    import workloads

    workloads.make(name, 0, inputs.sizes_for(preset, name))
    return time.perf_counter() - started


def samples(name: str, preset: str) -> List[Tuple[float, float]]:
    out = []
    before = host.probe()
    for _ in range(SAMPLES):
        for module in [m for m in sys.modules
                       if m.split(".")[0] in ("repro", "workloads")]:
            del sys.modules[module]
        seconds = timed_import(name, preset)
        after = host.probe()
        out.append((seconds, (before + after) / 2))
        before = after
    return out


if __name__ == "__main__":
    print(json.dumps(samples(*sys.argv[1:])))
