"""Related-work baselines discussed in the paper's Section 5."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "cluster": ("ClusterClock", "ClusterTimestamp"),
    "encoded": ("EncodedClock", "EncodedTimestamp"),
    "hlc": ("HLCTimestamp", "HybridLogicalClock", "counter_time_source"),
    "plausible": ("PlausibleClock", "PlausibleTimestamp"),
}

if TYPE_CHECKING:
    from repro.baselines.cluster import (
        ClusterClock as ClusterClock, ClusterTimestamp as ClusterTimestamp,
    )
    from repro.baselines.encoded import (
        EncodedClock as EncodedClock, EncodedTimestamp as EncodedTimestamp,
    )
    from repro.baselines.hlc import (
        HLCTimestamp as HLCTimestamp, HybridLogicalClock as HybridLogicalClock,
        counter_time_source as counter_time_source,
    )
    from repro.baselines.plausible import (
        PlausibleClock as PlausibleClock, PlausibleTimestamp as PlausibleTimestamp,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
