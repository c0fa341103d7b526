"""Timestamping algorithms: the paper's inline schemes and online baselines."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "base": (
        "INFINITY", "ClockAlgorithm", "DuplicateControl", "Timestamp", "vector_leq",
        "vector_lt",
    ),
    "host": ("ClockHost",),
    "inline_cover": ("CoverInlineClock", "CoverTimestamp"),
    "inline_star": ("StarInlineClock", "StarTimestamp"),
    "lamport": ("LamportClock", "LamportTimestamp"),
    "replay": ("TimestampAssignment", "ValidationReport", "replay_one"),
    "vector": ("VectorClock", "VectorTimestamp"),
    "vector_sk": ("SKVectorClock",),
}

if TYPE_CHECKING:
    from repro.clocks.base import (
        INFINITY as INFINITY, ClockAlgorithm as ClockAlgorithm,
        DuplicateControl as DuplicateControl, Timestamp as Timestamp,
        vector_leq as vector_leq, vector_lt as vector_lt,
    )
    from repro.clocks.host import ClockHost as ClockHost
    from repro.clocks.inline_cover import (
        CoverInlineClock as CoverInlineClock, CoverTimestamp as CoverTimestamp,
    )
    from repro.clocks.inline_star import (
        StarInlineClock as StarInlineClock, StarTimestamp as StarTimestamp,
    )
    from repro.clocks.lamport import (
        LamportClock as LamportClock, LamportTimestamp as LamportTimestamp,
    )
    from repro.clocks.replay import (
        TimestampAssignment as TimestampAssignment,
        ValidationReport as ValidationReport, replay_one as replay_one,
    )
    from repro.clocks.vector import (
        VectorClock as VectorClock, VectorTimestamp as VectorTimestamp,
    )
    from repro.clocks.vector_sk import SKVectorClock as SKVectorClock
else:
    from repro._exports import lazy_exports

    __all__ = ["replay", *(name for names in _EXPORTS.values() for name in names)]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``replay`` is both a submodule and the function it defines.  Whenever the
# submodule is imported, the import system binds the package attribute to
# the module; importing it here, once, leaves the function bound instead,
# so this one name stays eager (DESIGN.md §5).
from repro.clocks.replay import replay as replay
