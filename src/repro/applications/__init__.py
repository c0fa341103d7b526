"""Applications of inline timestamps (paper Section 6 and Figure 4)."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "causal_kv": (
        "Operation", "StoreConfig", "StoreRunResult", "TrafficReport", "WriteRecord",
        "run_store", "verify_causal_reads",
    ),
    "session": ("AnalysisSession", "Snapshot"),
    "detection_latency": ("DetectionLag", "detection_lag"),
    "global_predicate": ("definitely", "possibly"),
    "monitor": ("CutSample", "FinalizedCutMonitor", "cut_evolution"),
    "concurrent_updates": ("ConflictReport", "conflict_resolution_status"),
    "predicate": (
        "DetectionResult", "detect_conjunctive", "detect_with_inline",
    ),
    "recovery": (
        "RecoveryComparison", "periodic_checkpoints", "recovery_line",
        "recovery_line_lag",
    ),
    "replay": ("is_causal_schedule", "replay_schedule"),
}

if TYPE_CHECKING:
    from repro.applications.causal_kv import (
        Operation as Operation, StoreConfig as StoreConfig,
        StoreRunResult as StoreRunResult, TrafficReport as TrafficReport,
        WriteRecord as WriteRecord, run_store as run_store,
        verify_causal_reads as verify_causal_reads,
    )
    from repro.applications.session import (
        AnalysisSession as AnalysisSession, Snapshot as Snapshot,
    )
    from repro.applications.detection_latency import (
        DetectionLag as DetectionLag, detection_lag as detection_lag,
    )
    from repro.applications.global_predicate import (
        definitely as definitely, possibly as possibly,
    )
    from repro.applications.monitor import (
        CutSample as CutSample, FinalizedCutMonitor as FinalizedCutMonitor,
        cut_evolution as cut_evolution,
    )
    from repro.applications.concurrent_updates import (
        ConflictReport as ConflictReport,
        conflict_resolution_status as conflict_resolution_status,
    )
    from repro.applications.predicate import (
        DetectionResult as DetectionResult, detect_conjunctive as detect_conjunctive,
        detect_with_inline as detect_with_inline,
    )
    from repro.applications.recovery import (
        RecoveryComparison as RecoveryComparison,
        periodic_checkpoints as periodic_checkpoints, recovery_line as recovery_line,
        recovery_line_lag as recovery_line_lag,
    )
    from repro.applications.replay import (
        is_causal_schedule as is_causal_schedule, replay_schedule as replay_schedule,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
