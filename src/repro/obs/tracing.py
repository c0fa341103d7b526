"""Structured run tracing: deterministic JSONL span/event records.

A :class:`RunTracer` accumulates an ordered list of plain-dict records and
serializes them one JSON object per line.  Records carry a monotonically
increasing ``seq`` instead of wall-clock timestamps, and serialization uses
sorted keys and compact separators, so two traces of the same seeded run are
**byte-identical** — including a ``--workers 4`` sweep against its in-process
counterpart, because sweep hosts merge each cell's records in input order
(:meth:`RunTracer.extend`) rather than completion order.

Record shapes (``schema`` = :data:`TRACE_SCHEMA`):

- ``{"seq": 0, "type": "run", "schema": ..., "run": {<kind/run_id/meta>}}``
  — exactly one, always first.
- ``{"seq": n, "type": "span-begin"|"span-end", "name": ..., "attrs": {}}``
  — bracketing records for a phase (a chaos scenario, a validation pass).
- ``{"seq": n, "type": "event", "name": ..., "attrs": {}}`` — a point fact.
- ``{"seq": n, "type": "metrics", "scope": ..., "data": <registry export>}``
  — a :meth:`repro.obs.metrics.MetricsRegistry.as_dict` snapshot.

Reloading a trace with :func:`load_trace` and folding every ``metrics``
record with :func:`registry_from_trace` reproduces the run's registry
totals exactly — the round-trip property the test suite pins down.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.metrics import MetricsRegistry

#: version tag of the trace record format
TRACE_SCHEMA = "repro.trace/1"


def deterministic_run_id(*coords: object) -> str:
    """A stable run identifier derived from the run's coordinates.

    Hashes the ``repr`` of the coordinates (sha256, like
    :func:`repro.bench.cell_seed`), so identical configurations — regardless
    of host, worker count, or wall-clock — share a run id and their traces
    diff cleanly.
    """
    blob = "\x1f".join(repr(c) for c in coords).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class RunTracer:
    """Collects span/event/metrics records for one run.

    ``emit_header=False`` yields a headerless buffer: sweep cells running in
    worker processes use it to build their fragment of the trace, which the
    parent tracer absorbs with :meth:`extend` (renumbering ``seq`` so the
    merged trace is indistinguishable from a serially produced one).
    """

    def __init__(
        self,
        kind: str = "run",
        run_id: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
        emit_header: bool = True,
    ) -> None:
        self._records: List[Dict[str, Any]] = []
        self.kind = kind
        self.run_id = run_id or deterministic_run_id(kind, dict(meta or {}))
        if emit_header:
            self._append(
                {
                    "type": "run",
                    "schema": TRACE_SCHEMA,
                    "run": {
                        "kind": kind,
                        "run_id": self.run_id,
                        **dict(meta or {}),
                    },
                }
            )

    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        record["seq"] = len(self._records)
        self._records.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event."""
        self._append({"type": "event", "name": name, "attrs": attrs})

    def begin_span(self, name: str, **attrs: Any) -> None:
        self._append({"type": "span-begin", "name": name, "attrs": attrs})

    def end_span(self, name: str, **attrs: Any) -> None:
        self._append({"type": "span-end", "name": name, "attrs": attrs})

    def snapshot_metrics(
        self, scope: str, registry: "MetricsRegistry | Mapping[str, Any]"
    ) -> None:
        """Embed a registry export (or a pre-exported dict) in the trace."""
        data = (
            registry.as_dict()
            if isinstance(registry, MetricsRegistry)
            else dict(registry)
        )
        self._append({"type": "metrics", "scope": scope, "data": data})

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Absorb another tracer's records, renumbering ``seq``.

        This is the deterministic-merge primitive: hosts call it once per
        sweep cell *in input order*, so the merged trace does not depend on
        worker scheduling.
        """
        for rec in records:
            copy = dict(rec)
            copy.pop("seq", None)
            self._append(copy)

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def lines(self) -> List[str]:
        """One compact, key-sorted JSON string per record."""
        return [
            json.dumps(rec, sort_keys=True, separators=(",", ":"))
            for rec in self._records
        ]

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSONL (trailing newline included)."""
        out = Path(path)
        out.write_text("".join(line + "\n" for line in self.lines()))
        return out


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into its records (validating the header)."""
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: line {i + 1} is not a JSON object")
        records.append(rec)
    if not records:
        raise ValueError(f"{path}: empty trace")
    head = records[0]
    if head.get("type") != "run" or head.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: missing or unsupported trace header "
            f"(expected schema {TRACE_SCHEMA!r})"
        )
    return records


def registry_from_trace(
    records: Iterable[Mapping[str, Any]],
) -> MetricsRegistry:
    """Rebuild a registry by folding every ``metrics`` record of a trace.

    Because sweep hosts snapshot each cell's registry exactly once, the
    rebuilt registry reproduces the run's totals — the trace round-trip
    invariant.
    """
    registry = MetricsRegistry()
    for rec in records:
        if rec.get("type") == "metrics":
            registry.merge(rec["data"])
    return registry


def run_header(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """The ``run`` payload of a loaded trace's header record."""
    for rec in records:
        if rec.get("type") == "run":
            return dict(rec.get("run", {}))
    raise ValueError("trace has no run header")
