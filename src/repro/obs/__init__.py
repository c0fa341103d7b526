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

from typing import TYPE_CHECKING

_EXPORTS = {
    "metrics": (
        "BYTE_BUCKETS", "DEFAULT_BUCKETS", "METRICS_SCHEMA", "VTIME_BUCKETS", "Counter",
        "Gauge", "Histogram", "MetricsRegistry", "active_registry", "counter",
        "gauge", "metric", "use_registry",
    ),
    "report": ("render_report",),
    "tracing": (
        "TRACE_SCHEMA", "RunTracer", "deterministic_run_id", "load_trace",
        "registry_from_trace", "run_header",
    ),
}

if TYPE_CHECKING:
    from repro.obs.metrics import (
        BYTE_BUCKETS as BYTE_BUCKETS, DEFAULT_BUCKETS as DEFAULT_BUCKETS,
        METRICS_SCHEMA as METRICS_SCHEMA, VTIME_BUCKETS as VTIME_BUCKETS,
        Counter as Counter, Gauge as Gauge, Histogram as Histogram,
        MetricsRegistry as MetricsRegistry, active_registry as active_registry,
        counter as counter, gauge as gauge, metric as metric,
        use_registry as use_registry,
    )
    from repro.obs.report import render_report as render_report
    from repro.obs.tracing import (
        TRACE_SCHEMA as TRACE_SCHEMA, RunTracer as RunTracer,
        deterministic_run_id as deterministic_run_id, load_trace as load_trace,
        registry_from_trace as registry_from_trace, run_header as run_header,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
