"""Execution records: an execution is saved as its op list.

An execution (and its communication graph, if any) round-trips through the
op-list format that conformance corpus cases and fuzz mismatch records
already use, so adversarial constructions, failing fuzz cases and simulator
outputs can be archived, shared and replayed::

    {"schema": "repro.execution/2", "n_processes": 3,
     "edges": [[0, 1], [0, 2]],      # null when no graph was declared
     "ops": [["send", 0, 1, 0], ["local", 2], ["recv", 0]]}

:func:`~repro.core.random_executions.ops_of` writes the ops (a message's
tag is its id) and loading replays them through
:func:`~repro.core.random_executions.execution_from_ops`, so every model
invariant is re-checked and every message keeps its id.  Loading reads only
``n_processes``, ``edges`` and ``ops``, so a corpus case loads as it is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.execution import Execution, ExecutionBuilder, ExecutionError
from repro.core.random_executions import execution_from_ops, ops_of
from repro.topology.graph import CommunicationGraph

SCHEMA = "repro.execution/2"


def execution_to_dict(execution: Execution) -> Dict[str, Any]:
    """Serialize an execution (and its graph, if any) as its op list."""
    graph = execution.graph
    return {
        "schema": SCHEMA,
        "n_processes": execution.n_processes,
        "edges": None if graph is None else [list(e) for e in graph.edges],
        "ops": [list(op) for op in ops_of(execution)],
    }


def execution_from_dict(data: Dict[str, Any]) -> Execution:
    """Rebuild (and re-validate) an execution from its op record."""
    if "ops" not in data:
        raise ExecutionError("not an execution record: it has no 'ops'")
    n = int(data["n_processes"])
    edges = data["edges"]
    graph = (
        None
        if edges is None
        else CommunicationGraph(n, [(int(u), int(v)) for u, v in edges])
    )
    try:
        return execution_from_ops(
            graph, data["ops"], builder=ExecutionBuilder(n, graph=graph)
        )
    except (IndexError, TypeError) as exc:
        raise ExecutionError(f"malformed op: {exc}") from exc


def save_execution(execution: Execution, path: Union[str, Path]) -> None:
    """Write an execution record as JSON."""
    Path(path).write_text(json.dumps(execution_to_dict(execution)) + "\n")


def load_execution(path: Union[str, Path]) -> Execution:
    """Load and re-validate an execution record (or a corpus case)."""
    return execution_from_dict(json.loads(Path(path).read_text()))
