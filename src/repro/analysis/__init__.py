"""Analytic size models, latency statistics, and report formatting."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "latency": (
        "LatencySummary", "expected_star_finalization_latency",
        "finalization_latency_cdf", "finalized_fraction_curve", "mean_inflight_events",
        "percentile", "summarize_latencies",
    ),
    "reliability": ("ReliabilitySummary", "summarize_reliability"),
    "reports": ("format_series", "format_table"),
    "size_model": (
        "SizeComparison", "compare_sizes", "counter_bits", "crossover_cover_size",
        "id_bits", "inline_bits", "inline_elements", "vector_bits", "vector_elements",
    ),
}

if TYPE_CHECKING:
    from repro.analysis.latency import (
        LatencySummary as LatencySummary,
        expected_star_finalization_latency as expected_star_finalization_latency,
        finalization_latency_cdf as finalization_latency_cdf,
        finalized_fraction_curve as finalized_fraction_curve,
        mean_inflight_events as mean_inflight_events, percentile as percentile,
        summarize_latencies as summarize_latencies,
    )
    from repro.analysis.reliability import (
        ReliabilitySummary as ReliabilitySummary,
        summarize_reliability as summarize_reliability,
    )
    from repro.analysis.reports import (
        format_series as format_series, format_table as format_table,
    )
    from repro.analysis.size_model import (
        SizeComparison as SizeComparison, compare_sizes as compare_sizes,
        counter_bits as counter_bits, crossover_cover_size as crossover_cover_size,
        id_bits as id_bits, inline_bits as inline_bits,
        inline_elements as inline_elements, vector_bits as vector_bits,
        vector_elements as vector_elements,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
