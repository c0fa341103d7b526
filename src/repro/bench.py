"""Deterministic per-cell seeding for sweeps.

Sweeps in this repo — chaos scenarios, conformance trials, the
``benchmarks/bench_e*.py`` grids — are independent cells.  Each cell draws
its randomness from :func:`cell_seed` over its own coordinates, never from
sweep order, so a sweep sharded over the experiment fabric
(:mod:`repro.fabric`, the only process-parallel runner) reproduces the
serial loop exactly.  The function lives here rather than under
``repro.fabric`` because :mod:`repro.conformance` needs it and must not pay
the fabric's import cost.
"""

from __future__ import annotations

import hashlib


def cell_seed(*coords: object) -> int:
    """Deterministic 63-bit seed for one sweep cell.

    *coords* are the cell's stable coordinates (base seed, topology name,
    size, trial index, …), hashed with sha256 over their ``repr``.  The
    result is independent of sweep order, worker count, and per-process
    hash randomization, which is what makes parallel sweeps reproduce
    serial ones exactly.
    """
    blob = "\x1f".join(repr(c) for c in coords).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1
