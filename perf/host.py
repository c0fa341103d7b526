"""Host fingerprint and a fixed calibration loop.

This host's speed drifts by a quarter and more from one ten-second window to
the next (other tenants, frequency), which is wider than any regression
bound.  The calibration probe — pure stdlib, no ``repro`` code — is therefore
run before and after *every* repetition, and the repetition's times are
divided by how much slower than its reference the probe ran around it.
Drift common to the probe and the workload cancels; a change in the library
does not, because the probe never runs library code.  ``host.probe_ms``
reports the probe's median so a reader can still tell a slow host from slow
code, and the per-layer workload figures (``sim_events_per_s`` and friends)
stay raw.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import subprocess
import sys
import time
from typing import Any, Dict

#: the three parts' times (ms) on this host when nothing disturbs it; only
#: ratios between two commits on one host matter, so any constants would do
REFERENCE_MS = (15.0, 12.5, 11.0)


def _interpreter_part() -> None:
    acc = 0
    table: Dict[int, int] = {}
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc


_BITS = [random.Random(k).getrandbits(1 << 20) for k in range(8)]


def _memory_part() -> None:
    # megabit integers, as the packed-int causality kernel streams them
    acc = 0
    for i in range(200):
        acc |= _BITS[i & 7] ^ _BITS[(i + 3) & 7]
        acc.bit_count()


def _allocation_part() -> None:
    rows = [(i, i + 1, str(i)) for i in range(50_000)]
    index = {k: v for k, v, _ in rows}
    del rows, index


PARTS = (_interpreter_part, _memory_part, _allocation_part)


def probe() -> float:
    """Host slowdown right now: the geometric mean, over an interpreter-bound,
    a memory-bound and an allocation-bound loop (~45 ms together), of each
    loop's time relative to its reference.  The workloads mix the three in
    different proportions; the mean tracked each of them better than any one
    loop did.

    Garbage is collected first and the collector is off while the loops run,
    so what the library has left on the heap is not traversed inside the probe:
    a change that retains more objects must not slow the probe down with it."""
    gc.collect()
    gc.disable()
    try:
        slowdown = 1.0
        for part, reference_ms in zip(PARTS, REFERENCE_MS):
            started = time.perf_counter()
            part()
            slowdown *= (time.perf_counter() - started) * 1e3 / reference_ms
    finally:
        gc.enable()
    return slowdown ** (1.0 / len(PARTS))


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str) -> Dict[str, Any]:
    """Interpreter, numpy, core count, commit and the library's defaults."""
    from repro.core.backend import numpy_available, resolve_backend, resolve_store

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "numpy_kernel_available": numpy_available(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        # what the library picks by default for a large execution
        "kernel_backend": resolve_backend(1 << 20),
        "event_store": resolve_store(),
        "git_commit": git_commit(root),
    }
