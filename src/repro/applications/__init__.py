"""Applications of inline timestamps (paper Section 6 and Figure 4)."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "causal_kv": (
        "Operation", "StoreConfig", "StoreRunResult", "TrafficReport", "WriteRecord",
        "run_store", "verify_causal_reads",
    ),
    "causal_broadcast": (
        "Broadcast", "CausalBroadcastProcess", "check_causal_delivery",
    ),
    "session": ("AnalysisSession", "Snapshot"),
    "detection_latency": ("DetectionLag", "detection_lag", "first_detection_time"),
    "global_predicate": (
        "count_consistent_cuts", "definitely", "enumerate_consistent_cuts", "possibly",
        "possibly_with_inline",
    ),
    "monitor": ("CutSample", "FinalizedCutMonitor", "cut_evolution"),
    "concurrent_updates": (
        "ConflictReport", "OnlineConcurrentUpdateDetector",
        "conflict_resolution_status", "find_conflicts",
    ),
    "predicate": (
        "DetectionResult", "OnlineConjunctiveDetector", "assignment_comparator",
        "detect_conjunctive", "detect_with_inline",
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
    from repro.applications.causal_broadcast import (
        Broadcast as Broadcast, CausalBroadcastProcess as CausalBroadcastProcess,
        check_causal_delivery as check_causal_delivery,
    )
    from repro.applications.session import (
        AnalysisSession as AnalysisSession, Snapshot as Snapshot,
    )
    from repro.applications.detection_latency import (
        DetectionLag as DetectionLag, detection_lag as detection_lag,
        first_detection_time as first_detection_time,
    )
    from repro.applications.global_predicate import (
        count_consistent_cuts as count_consistent_cuts, definitely as definitely,
        enumerate_consistent_cuts as enumerate_consistent_cuts, possibly as possibly,
        possibly_with_inline as possibly_with_inline,
    )
    from repro.applications.monitor import (
        CutSample as CutSample, FinalizedCutMonitor as FinalizedCutMonitor,
        cut_evolution as cut_evolution,
    )
    from repro.applications.concurrent_updates import (
        ConflictReport as ConflictReport,
        OnlineConcurrentUpdateDetector as OnlineConcurrentUpdateDetector,
        conflict_resolution_status as conflict_resolution_status,
        find_conflicts as find_conflicts,
    )
    from repro.applications.predicate import (
        DetectionResult as DetectionResult,
        OnlineConjunctiveDetector as OnlineConjunctiveDetector,
        assignment_comparator as assignment_comparator,
        detect_conjunctive as detect_conjunctive,
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
