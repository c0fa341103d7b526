"""Pinned regression corpus for the conformance fuzzer.

Every execution-level bug or boundary behavior this repo has had to reason
about gets a *corpus case*: a small JSON file holding the (usually shrunk)
op list, the topology, and which schemes/invariants it pins.  The tier-1
suite replays the whole corpus through
:func:`repro.conformance.fuzzer.check_execution` on every run, so a
regression reintroducing an old bug fails immediately with the minimized
counterexample — no fuzzing budget required.

File format (``repro.conformance.case/1``)::

    {
      "schema": "repro.conformance.case/1",
      "name": "star-no-ack-boundary",
      "notes": "why this execution is pinned",
      "n_processes": 3,
      "edges": [[0, 1], [0, 2]],
      "fifo": false,
      "ops": [["send", 0, 1, 0], ["local", 2], ["recv", 0]],
      "schemes": ["inline-star"]        // optional; default: all legal
    }

Cases are deliberately self-contained — explicit edge lists, not generator
names — so replay never depends on topology-generator RNG details.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.conformance.fuzzer import Mismatch, check_execution
from repro.conformance.registry import scheme_by_name
from repro.core.random_executions import Op
from repro.topology.graph import CommunicationGraph

CASE_SCHEMA = "repro.conformance.case/1"


@dataclass(frozen=True)
class CorpusCase:
    """One pinned execution plus the scheme set it constrains."""

    name: str
    n_processes: int
    edges: Tuple[Tuple[int, int], ...]
    ops: Tuple[Op, ...]
    fifo: bool = False
    schemes: Optional[Tuple[str, ...]] = None  # None = all legal schemes
    notes: str = ""

    def graph(self) -> CommunicationGraph:
        return CommunicationGraph(self.n_processes, self.edges)

    def to_json(self) -> str:
        payload = {
            "schema": CASE_SCHEMA,
            "name": self.name,
            "notes": self.notes,
            "n_processes": self.n_processes,
            "edges": [list(e) for e in self.edges],
            "fifo": self.fifo,
            "ops": [list(op) for op in self.ops],
        }
        if self.schemes is not None:
            payload["schemes"] = list(self.schemes)
        return json.dumps(payload, indent=2) + "\n"


def case_from_mismatch(name: str, mismatch: Mismatch) -> CorpusCase:
    """Package a (shrunken) mismatch as a corpus case pinning its scheme."""
    schemes = None if mismatch.scheme == "oracle" else (mismatch.scheme,)
    return CorpusCase(
        name=name,
        n_processes=mismatch.n_processes,
        edges=mismatch.edges,
        ops=mismatch.ops,
        fifo=mismatch.fifo,
        schemes=schemes,
        notes=mismatch.detail,
    )


def load_case(path: Union[str, Path]) -> CorpusCase:
    raw = json.loads(Path(path).read_text())
    if raw.get("schema") != CASE_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {CASE_SCHEMA!r}, "
            f"got {raw.get('schema')!r}"
        )
    schemes = raw.get("schemes")
    return CorpusCase(
        name=raw["name"],
        n_processes=raw["n_processes"],
        edges=tuple(tuple(e) for e in raw["edges"]),
        ops=tuple(tuple(op) for op in raw["ops"]),
        fifo=bool(raw.get("fifo", False)),
        schemes=tuple(schemes) if schemes is not None else None,
        notes=raw.get("notes", ""),
    )


def save_case(case: CorpusCase, directory: Union[str, Path]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    path.write_text(case.to_json())
    return path


def load_corpus(directory: Union[str, Path]) -> List[CorpusCase]:
    """All cases under *directory*, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory {directory} not found")
    return [load_case(p) for p in sorted(directory.glob("*.json"))]


def replay_case(case: CorpusCase) -> List[Mismatch]:
    """Re-check one pinned execution; an empty list means it still passes."""
    schemes = (
        [scheme_by_name(s) for s in case.schemes]
        if case.schemes is not None
        else None
    )
    return check_execution(
        case.graph(),
        case.ops,
        fifo=case.fifo,
        schemes=schemes,
        context={"corpus_case": case.name},
    )
