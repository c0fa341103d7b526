"""``repro.obs`` — zero-dependency metrics and structured run tracing.

The observability layer for the reproduction: a process-local
:class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms) and a
:class:`RunTracer` emitting deterministic JSONL span/event records.  The
hot seams of the library are instrumented against it:

- clock hosts (:mod:`repro.sim.runner`, :mod:`repro.clocks.replay`) report
  per-scheme timestamp element counts, encoded bits, piggybacked payload
  size, and — the paper's central quantity — **finalization delay in
  events** (how many events elapse while a timestamp is still ``⊥``);
- the simulator and :mod:`repro.faults` report messages
  sent/dropped/duplicated/retransmitted and partition epochs;
- the matrix validator (:func:`repro.clocks.replay.decode_mismatches`,
  behind :meth:`~repro.clocks.replay.TimestampAssignment.validate` and
  :func:`repro.lowerbounds.verify.check_vector_assignment`) reports
  compared cells and decoded mismatch bits; a lower-bound duplicate pair
  is not a decoded bit.

See EXPERIMENTS.md → Observability for the metric name catalog and the
trace schema, ``repro metrics`` / ``--trace-out`` for the CLI surface, and
``tools/metrics_report.py`` for rendering traces as markdown.
"""

from repro.obs.metrics import (
    BYTE_BUCKETS,
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    VTIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter,
    default_registry,
    gauge,
    metric,
    use_registry,
)
from repro.obs.report import render_report, render_trace_report
from repro.obs.tracing import (
    TRACE_SCHEMA,
    RunTracer,
    deterministic_run_id,
    load_trace,
    registry_from_trace,
    run_header,
)

__all__ = [
    "BYTE_BUCKETS",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "VTIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "counter",
    "default_registry",
    "gauge",
    "metric",
    "use_registry",
    "render_report",
    "render_trace_report",
    "TRACE_SCHEMA",
    "RunTracer",
    "deterministic_run_id",
    "load_trace",
    "registry_from_trace",
    "run_header",
]
