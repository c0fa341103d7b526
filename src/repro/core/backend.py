"""Kernel selection for the causality oracle — the one place that decides it.

Every oracle builds the same clock table the same way; the kernel decides
which representation of the bit rows exhaustive validation reads:

- ``pure`` — packed Python ints (``past_masks()``), always available;
- ``numpy`` — the same rows as a contiguous ``(m, ceil(m/64))`` ``uint64``
  matrix (``past_matrix()``), compared, counted and decoded in bulk
  (:mod:`repro.core.npkernel`).  Byte-identical to ``pure`` — the
  conformance fuzzer's ``backend-differential`` invariant and the
  hypothesis parity suite pin that equivalence.

:func:`resolve_backend` picks from the input size: numpy when importable
*and* the execution has at least :data:`NUMPY_MIN_EVENTS` events, else the
pure kernel, whose fixed costs are lower.  Two things can name a kernel
instead: a ``backend=`` argument at a construction site (what the
benchmark probes and the parity suites use to hold the reference), and
:func:`use_backend`, the scoped pin behind ``repro conformance
--backend``.  Nothing reads the environment.

numpy is an optional dependency (``pip install "repro[fast]"``);
every consumer goes through :func:`numpy_available` so its absence never
raises, it just pins the resolution to ``pure``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

#: ``auto`` resolves to numpy only at or above this event count.  Both
#: kernels build the same clock table, so the benchmark's
#: ``core.kernel.{pure,numpy}.build_s`` probes time that one build (bits
#: are decoded on first read) and see no crossover.  The kernel decides
#: decode plus validation, where numpy is ahead from ~130 events (a vector
#: clock on star(32): 1.6 vs 2.8 ms on a 2-core x86-64 host), so this
#: value is conservative rather than a measured crossover.
NUMPY_MIN_EVENTS = 512

BACKENDS = ("auto", "pure", "numpy")

#: the kernel pinned by an enclosing :func:`use_backend` (None = by size)
_pinned: Optional[str] = None

#: memoized numpy availability probe (None = not probed yet)
_numpy_ok: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the numpy backend can be used in this interpreter.

    Requires numpy >= 2.0 (``np.bitwise_count``); older versions count as
    unavailable rather than failing later on a missing ufunc.
    """
    global _numpy_ok
    if _numpy_ok is None:
        try:
            import numpy as np

            _numpy_ok = hasattr(np, "bitwise_count")
        except ImportError:
            _numpy_ok = False
    return _numpy_ok


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKENDS}"
        )
    return name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Pin the kernel for the enclosed block; restores the previous pin."""
    global _pinned
    prev = _pinned
    _pinned = _validate(name)
    try:
        yield
    finally:
        _pinned = prev


def resolve_backend(n_events: int, override: Optional[str] = None) -> str:
    """Decide ``"pure"`` or ``"numpy"`` for an oracle over *n_events* events.

    *override* is the construction-site argument and wins outright, then
    an enclosing :func:`use_backend`, then the size rule.  ``"numpy"``
    (from either) is a hard request — it raises if numpy is unavailable,
    rather than silently degrading a caller that asked for the fast kernel
    by name.
    """
    choice = _validate(override) if override is not None else _pinned or "auto"
    if choice == "auto":
        # the size first: a small oracle never imports numpy to decide
        if n_events >= NUMPY_MIN_EVENTS and numpy_available():
            return "numpy"
        return "pure"
    if choice == "numpy" and not numpy_available():
        raise RuntimeError(
            "kernel backend 'numpy' requested but numpy>=2.0 is not "
            "installed (pip install numpy, or the [fast] extra)"
        )
    return choice


def resolve_store() -> str:
    """The simulator's one event recorder.  A constant, kept because the
    benchmark's host fingerprint calls it (DESIGN.md §5 lists what else
    survives only for ``perf/``)."""
    return "object"
