"""Event model, executions, happened-before oracle, and consistent cuts."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "events": ("Event", "EventId", "EventKind", "Message", "MessageId", "ProcessId"),
    "colstore": ("ColumnarExecution", "ColumnarExecutionBuilder", "EventStore"),
    "execution": ("Execution", "ExecutionBuilder", "ExecutionError"),
    "happened_before": ("HappenedBeforeOracle",),
    "incremental": (
        "IncrementalHBOracle", "as_batch_oracle", "incremental_from_execution",
    ),
    "random_executions": ("random_execution",),
    "trace": ("load_execution", "save_execution"),
    "cuts": (
        "Cut", "cut_from_events", "cut_size", "empty_cut", "events_in_cut", "frontier",
        "full_cut", "is_consistent", "join", "max_consistent_cut_within", "meet",
    ),
}

if TYPE_CHECKING:
    from repro.core.events import (
        Event as Event, EventId as EventId, EventKind as EventKind, Message as Message,
        MessageId as MessageId, ProcessId as ProcessId,
    )
    from repro.core.colstore import (
        ColumnarExecution as ColumnarExecution,
        ColumnarExecutionBuilder as ColumnarExecutionBuilder, EventStore as EventStore,
    )
    from repro.core.execution import (
        Execution as Execution, ExecutionBuilder as ExecutionBuilder,
        ExecutionError as ExecutionError,
    )
    from repro.core.happened_before import HappenedBeforeOracle as HappenedBeforeOracle
    from repro.core.incremental import (
        IncrementalHBOracle as IncrementalHBOracle, as_batch_oracle as as_batch_oracle,
        incremental_from_execution as incremental_from_execution,
    )
    from repro.core.random_executions import random_execution as random_execution
    from repro.core.trace import (
        load_execution as load_execution, save_execution as save_execution,
    )
    from repro.core.cuts import (
        Cut as Cut, cut_from_events as cut_from_events, cut_size as cut_size,
        empty_cut as empty_cut, events_in_cut as events_in_cut, frontier as frontier,
        full_cut as full_cut, is_consistent as is_consistent, join as join,
        max_consistent_cut_within as max_consistent_cut_within, meet as meet,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
