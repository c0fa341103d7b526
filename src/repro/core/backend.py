"""Kernel backend selection for the causality oracle.

The happened-before kernel has two interchangeable implementations:

- ``pure`` — packed Python-int bitmask rows, always available, the
  reference every other path is validated against;
- ``numpy`` — the same rows stored as a contiguous ``(m, ceil(m/64))``
  ``uint64`` matrix (structure-of-arrays) with bulk-OR construction and
  vectorized popcounts (:mod:`repro.core.npkernel`).  Byte-identical to
  ``pure`` — the conformance fuzzer's ``backend-differential`` invariant
  and the hypothesis parity suite pin that equivalence.

Selection is a three-level override chain, strongest first:

1. an explicit ``backend=`` argument at a construction site;
2. a process-wide preference via :func:`set_backend` /
   :func:`use_backend` or the ``REPRO_KERNEL_BACKEND`` environment
   variable;
3. ``auto`` — numpy when importable *and* the execution is large enough
   (:data:`NUMPY_MIN_EVENTS`) for the vectorized paths to win; tiny
   executions stay on the pure kernel, whose fixed costs are lower.

numpy is an optional dependency (``pip install "repro[fast]"``);
every consumer goes through :func:`numpy_available` so its absence never
raises, it just pins the resolution to ``pure``.

The module also hosts the analogous *event-store* seam: ``object``
(per-event heap objects) vs ``columnar``
(:mod:`repro.core.colstore` structure-of-arrays), selected through
:func:`resolve_store` / :func:`set_store` / ``REPRO_EVENT_STORE``.
The columnar store needs nothing beyond the standard library, so unlike
the kernel there is no availability probe — only preference.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: ``auto`` resolves to numpy only at or above this event count — below it
#: the pure kernel's lower fixed costs win (measured crossover ~a few
#: hundred events; the benchmark's ``core.kernel.{pure,numpy}.build_s``
#: layer probes on ``offline-nine`` time both sides of it).
NUMPY_MIN_EVENTS = 512

#: environment variable consulted when no process-wide override is set
ENV_VAR = "REPRO_KERNEL_BACKEND"

BACKENDS = ("auto", "pure", "numpy")

#: environment variable selecting the event-store implementation
STORE_ENV_VAR = "REPRO_EVENT_STORE"

#: event-store flavors: ``object`` is the per-event heap-object model
#: (:class:`~repro.core.execution.ExecutionBuilder`), ``columnar`` the
#: structure-of-arrays :class:`~repro.core.colstore.EventStore`.  ``auto``
#: currently resolves to ``object`` — the columnar store is opt-in (CI
#: runs a whole tier-1 leg with it forced on).
STORES = ("auto", "object", "columnar")

#: process-wide override installed by :func:`set_backend` (None = unset)
_forced: Optional[str] = None

#: process-wide store override installed by :func:`set_store` (None = unset)
_forced_store: Optional[str] = None

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


def backend_preference() -> str:
    """The process-wide preference: forced > ``$REPRO_KERNEL_BACKEND`` > auto."""
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env)
    return "auto"


def set_backend(name: Optional[str]) -> None:
    """Install (or with ``None`` clear) the process-wide backend preference."""
    global _forced
    _forced = _validate(name) if name is not None else None


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scoped :func:`set_backend`: restores the previous preference on exit."""
    global _forced
    prev = _forced
    _forced = _validate(name)
    try:
        yield
    finally:
        _forced = prev


def resolve_backend(n_events: int, override: Optional[str] = None) -> str:
    """Decide ``"pure"`` or ``"numpy"`` for an oracle over *n_events* events.

    *override* is the construction-site argument and wins outright;
    ``"numpy"`` (from either level) is a hard request — it raises if numpy
    is unavailable, rather than silently degrading a caller that asked for
    the fast kernel by name.
    """
    choice = _validate(override) if override is not None else backend_preference()
    if choice == "auto":
        if numpy_available() and n_events >= NUMPY_MIN_EVENTS:
            return "numpy"
        return "pure"
    if choice == "numpy" and not numpy_available():
        raise RuntimeError(
            "kernel backend 'numpy' requested but numpy>=2.0 is not "
            "installed (pip install numpy, or the [fast] extra)"
        )
    return choice


# ----------------------------------------------------------------------
# event-store selection (the REPRO_EVENT_STORE seam)
# ----------------------------------------------------------------------
def _validate_store(name: str) -> str:
    if name not in STORES:
        raise ValueError(
            f"unknown event store {name!r}; expected one of {STORES}"
        )
    return name


def store_preference() -> str:
    """The process-wide store preference: forced > ``$REPRO_EVENT_STORE`` > auto."""
    if _forced_store is not None:
        return _forced_store
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return _validate_store(env)
    return "auto"


def set_store(name: Optional[str]) -> None:
    """Install (or with ``None`` clear) the process-wide store preference."""
    global _forced_store
    _forced_store = _validate_store(name) if name is not None else None


@contextmanager
def use_store(name: str) -> Iterator[None]:
    """Scoped :func:`set_store`: restores the previous preference on exit."""
    global _forced_store
    prev = _forced_store
    _forced_store = _validate_store(name)
    try:
        yield
    finally:
        _forced_store = prev


def resolve_store(override: Optional[str] = None) -> str:
    """Decide ``"object"`` or ``"columnar"`` for an execution builder.

    *override* is the construction-site argument (e.g.
    ``Simulation(event_store=...)``) and wins outright; otherwise the
    process preference applies, with ``auto`` resolving to the object
    store — columnar is opt-in, never silently swapped in.  Unlike the
    kernel seam there is no availability question: the columnar store is
    pure stdlib (``array``), so every resolution is always honourable.
    """
    choice = (
        _validate_store(override)
        if override is not None
        else store_preference()
    )
    return "object" if choice == "auto" else choice
