"""Applications of inline timestamps (paper Section 6 and Figure 4)."""

from repro.applications.causal_kv import (
    Operation,
    StoreConfig,
    StoreRunResult,
    TrafficReport,
    WriteRecord,
    run_store,
    verify_causal_reads,
)
from repro.applications.causal_broadcast import (
    Broadcast,
    CausalBroadcastProcess,
    check_causal_delivery,
)
from repro.applications.session import AnalysisSession, Snapshot
from repro.applications.detection_latency import (
    DetectionLag,
    detection_lag,
    first_detection_time,
)
from repro.applications.global_predicate import (
    count_consistent_cuts,
    definitely,
    enumerate_consistent_cuts,
    possibly,
    possibly_with_inline,
)
from repro.applications.monitor import (
    CutSample,
    FinalizedCutMonitor,
    cut_evolution,
)
from repro.applications.concurrent_updates import (
    ConflictReport,
    OnlineConcurrentUpdateDetector,
    conflict_resolution_status,
    find_conflicts,
)
from repro.applications.predicate import (
    DetectionResult,
    OnlineConjunctiveDetector,
    assignment_comparator,
    detect_conjunctive,
    detect_with_inline,
)
from repro.applications.recovery import (
    RecoveryComparison,
    periodic_checkpoints,
    recovery_line,
    recovery_line_lag,
)
from repro.applications.replay import is_causal_schedule, replay_schedule

__all__ = [
    "Operation",
    "StoreConfig",
    "StoreRunResult",
    "TrafficReport",
    "WriteRecord",
    "run_store",
    "verify_causal_reads",
    "ConflictReport",
    "OnlineConcurrentUpdateDetector",
    "conflict_resolution_status",
    "find_conflicts",
    "DetectionResult",
    "OnlineConjunctiveDetector",
    "assignment_comparator",
    "detect_conjunctive",
    "detect_with_inline",
    "RecoveryComparison",
    "periodic_checkpoints",
    "recovery_line",
    "recovery_line_lag",
    "is_causal_schedule",
    "replay_schedule",
    "count_consistent_cuts",
    "definitely",
    "enumerate_consistent_cuts",
    "possibly",
    "possibly_with_inline",
    "CutSample",
    "FinalizedCutMonitor",
    "cut_evolution",
    "DetectionLag",
    "detection_lag",
    "first_detection_time",
    "Broadcast",
    "CausalBroadcastProcess",
    "check_causal_delivery",
    "AnalysisSession",
    "Snapshot",
]
