"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The paper's measured quantities — timestamp element counts, piggybacked
payload size, and above all the *finalization delay* of an inline timestamp
(how long it stays ``⊥`` before the control round trip completes, Sections
3–4) — used to be computed only inside one-off benchmark scripts.  This
module makes them first-class: any instrumented code path obtains an
instrument from the active :class:`MetricsRegistry` and records into it,
and hosts export the registry as plain JSON.

Design constraints, in order:

- **Determinism.**  A registry's :meth:`~MetricsRegistry.as_dict` export is
  a pure function of the observations it received: no wall-clock
  timestamps, no ids, keys sorted at serialization time.  Two runs with the
  same seed produce byte-identical exports, which is what lets the CI diff
  an in-process sweep against ``--workers 4``.
- **Isolation.**  Registries are plain objects; the *active* registry is a
  thread-local stack over a per-process default.  The experiment fabric's
  worker processes (:mod:`repro.fabric`) therefore never share instruments
  with the parent — a sweep cell records into its own registry and ships
  the export back as part of its JSON result, and the parent merges
  the exports in input order (:meth:`MetricsRegistry.merge`).
- **Zero dependencies.**  Histograms use fixed bucket upper edges (values
  land in the first bucket whose edge is ``>= value``, with one overflow
  bucket), so merging is exact and the export is small.

Typical use::

    from repro.obs import metric, counter, use_registry, MetricsRegistry

    reg = MetricsRegistry()
    with use_registry(reg):
        metric("clock.piggyback_bytes", clock="inline").observe(n)
        counter("sim.app_messages_sent").inc()
    print(reg.to_json())
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from fractions import Fraction

#: version tag of the registry export format
METRICS_SCHEMA = "repro.metrics/1"

#: default histogram bucket upper edges: a Fibonacci-ish ladder that suits
#: event-count and element-count observations alike
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377,
)

#: bucket ladder for byte-sized observations (powers of two)
BYTE_BUCKETS: Tuple[float, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
)

#: bucket ladder for virtual-time latencies
VTIME_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


def _full_name(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    if len(labels) == 1:
        # a single label needs no sort/join machinery; this is the common
        # hot-path shape (e.g. per-clock instruments resolved per event)
        k, v = next(iter(labels.items()))
        return f"{name}{{{k}={v}}}"
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer (resettable)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def reset(self) -> None:
        self.value = 0.0


def percentile(sorted_values: Sequence[float], q: float | Fraction) -> float:
    """Nearest-rank percentile of pre-sorted values; 0.0 for empty input.

    The smallest value with at least a fraction *q* of the values at or
    below it.  A :class:`fractions.Fraction` *q* ranks exactly, where a float
    such as ``0.55`` times 100 rounds up to the next rank.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


class Histogram:
    """Fixed-bucket histogram with exact merge.

    ``edges`` are bucket *upper* bounds: an observation ``v`` lands in the
    first bucket whose edge satisfies ``v <= edge``; values above the last
    edge land in the overflow bucket, so ``len(counts) == len(edges) + 1``.
    ``sum``/``count``/``min``/``max`` are tracked exactly.
    """

    __slots__ = ("edges", "counts", "sum", "count", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not edges:
            raise ValueError("need at least one bucket edge")
        ordered = tuple(edges)
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.edges, v)] += 1
        self.sum += v
        self.count += 1
        mn = self.min
        if mn is None or v < mn:
            self.min = v
        mx = self.max
        if mx is None or v > mx:
            self.max = v

    def observe_n(self, v: float, n: int) -> None:
        """Record *n* observations of the same value *v* (``n = 0``: no-op).

        For an integer *v* this is exactly *n* calls of :meth:`observe` —
        which is what lets a hot loop keep a ``{value: count}`` tally and
        fold it in once.  A float *v* enters ``sum`` as one product, not
        *n* rounded additions; replay those through :meth:`observe`.
        """
        if n < 0:
            raise ValueError("cannot observe a negative number of times")
        if n == 0:
            return
        self.counts[bisect_left(self.edges, v)] += n
        self.sum += v * n
        self.count += n
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = None
        self.max = None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (the landing bucket's edge).

        Returns ``None`` on an empty histogram; the overflow bucket reports
        the exact observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = max(1, round(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.edges[i] if i < len(self.edges) else self.max
        return self.max  # pragma: no cover - rank <= count by construction


class MetricsRegistry:
    """A named collection of instruments with deterministic JSON export."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors (create-on-first-use)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _full_name(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _full_name(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = _full_name(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        elif buckets is not None and tuple(buckets) != inst.edges:
            raise ValueError(
                f"histogram {key!r} already exists with different buckets"
            )
        return inst

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> int:
        inst = self._counters.get(_full_name(name, labels))
        return inst.value if inst is not None else 0

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # export / merge / reset
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON export, deterministically ordered."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "min": h.min,
                    "max": h.max,
                }
                for k in sorted(self._histograms)
                for h in (self._histograms[k],)
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or its :meth:`as_dict` export) into this one.

        Counters and histogram cells add; gauges take the incoming value
        (last write wins); histograms must agree on bucket edges.  Merging
        exports is how sweep cells report back from worker processes.
        """
        data = other.as_dict() if isinstance(other, MetricsRegistry) else other
        if data.get("schema", METRICS_SCHEMA) != METRICS_SCHEMA:
            raise ValueError(f"unsupported metrics schema {data.get('schema')!r}")
        for key, value in data.get("counters", {}).items():
            self._counters.setdefault(key, Counter()).value += value
        for key, value in data.get("gauges", {}).items():
            self._gauges.setdefault(key, Gauge()).value = value
        for key, hdata in data.get("histograms", {}).items():
            edges = tuple(hdata["edges"])
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(edges)
            elif inst.edges != edges:
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket edges differ"
                )
            inst.counts = [a + b for a, b in zip(inst.counts, hdata["counts"])]
            inst.sum += hdata["sum"]
            inst.count += hdata["count"]
            for attr in ("min", "max"):
                incoming = hdata[attr]
                if incoming is None:
                    continue
                current = getattr(inst, attr)
                combine = min if attr == "min" else max
                setattr(
                    inst,
                    attr,
                    incoming if current is None else combine(current, incoming),
                )

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        for group in (self._counters, self._gauges, self._histograms):
            for inst in group.values():
                inst.reset()


# ----------------------------------------------------------------------
# active-registry machinery
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_active = threading.local()


def active_registry() -> MetricsRegistry:
    """The registry instrumented code should record into.

    The innermost :func:`use_registry` scope on *this thread*, else the
    process default.  Scopes are thread-local so concurrent hosts never
    observe each other's instruments.
    """
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else _default_registry


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make *registry* the active one for the duration of the block."""
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()


def metric(
    name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
) -> Histogram:
    """Histogram accessor on the active registry (the common observe path)."""
    return active_registry().histogram(name, buckets=buckets, **labels)


def counter(name: str, **labels: Any) -> Counter:
    """Counter accessor on the active registry."""
    return active_registry().counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    """Gauge accessor on the active registry."""
    return active_registry().gauge(name, **labels)
