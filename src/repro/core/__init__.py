"""Event model, executions, happened-before oracle, and consistent cuts."""

from repro.core.events import (
    Event,
    EventId,
    EventKind,
    Message,
    MessageId,
    ProcessId,
)
from repro.core.colstore import (
    ColumnarExecution,
    ColumnarExecutionBuilder,
    EventStore,
)
from repro.core.execution import Execution, ExecutionBuilder, ExecutionError
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import (
    IncrementalHBOracle,
    as_batch_oracle,
    incremental_from_execution,
)
from repro.core.random_executions import random_execution
from repro.core.trace import (
    execution_from_dict,
    execution_to_dict,
    load_execution,
    save_execution,
)
from repro.core.cuts import (
    Cut,
    cut_from_events,
    cut_size,
    empty_cut,
    events_in_cut,
    frontier,
    full_cut,
    is_consistent,
    join,
    max_consistent_cut_within,
    meet,
)

__all__ = [
    "Event",
    "EventId",
    "EventKind",
    "Message",
    "MessageId",
    "ProcessId",
    "ColumnarExecution",
    "ColumnarExecutionBuilder",
    "EventStore",
    "Execution",
    "ExecutionBuilder",
    "ExecutionError",
    "HappenedBeforeOracle",
    "IncrementalHBOracle",
    "as_batch_oracle",
    "incremental_from_execution",
    "Cut",
    "cut_from_events",
    "cut_size",
    "empty_cut",
    "events_in_cut",
    "frontier",
    "full_cut",
    "is_consistent",
    "join",
    "max_consistent_cut_within",
    "meet",
    "random_execution",
    "execution_from_dict",
    "execution_to_dict",
    "load_execution",
    "save_execution",
]
