"""Streaming JSONL trace compaction for fabric sweeps.

:class:`repro.obs.tracing.RunTracer` merges sweep-cell trace fragments
in memory — fine for a 18-cell chaos sweep, hopeless for a nightly
million-event campaign.  :class:`StreamingTraceWriter` is the bounded-
memory sibling: it writes records straight to disk as they are absorbed,
renumbering ``seq`` exactly like :meth:`RunTracer.extend`, so compacting
a fabric store's fragments *in input order* produces output
**byte-identical** to the serial in-memory tracer of the same sweep —
the PR-3 merge discipline, held at any scale.

The usual pipeline::

    writer = StreamingTraceWriter(path, kind="chaos", run_id=..., meta=...)
    writer.event("skipped-clocks", clocks=[...])
    compact_fragments(
        writer, store, report.keys,
        extract=lambda result: result["trace"],
    )
    writer.event("sweep-summary", cells=..., ok=...)
    writer.close()

Only one cell's fragment is ever resident; everything else is already
on disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.fabric.store import ResultStore
from repro.obs.tracing import TRACE_SCHEMA, deterministic_run_id


def _dump(record: Mapping[str, Any]) -> str:
    # must match RunTracer.lines() byte for byte
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class StreamingTraceWriter:
    """Incremental writer of ``repro.trace/1`` JSONL files.

    Emits the run-header record on construction and appends records with
    monotonically increasing ``seq``, flushing as it goes — an
    interrupted run leaves a valid (if partial) trace on disk, which is
    what the graceful-SIGINT path relies on.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str = "run",
        run_id: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.run_id = run_id or deterministic_run_id(kind, dict(meta or {}))
        self._seq = 0
        self._fh = self.path.open("w")
        self._write(
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
    def _write(self, record: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"trace writer {self.path} already closed")
        rec = dict(record)
        rec["seq"] = self._seq
        self._seq += 1
        self._fh.write(_dump(rec) + "\n")

    def event(self, name: str, **attrs: Any) -> None:
        self._write({"type": "event", "name": name, "attrs": attrs})

    def extend(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Absorb a fragment's records in order, renumbering ``seq``."""
        n = 0
        for rec in records:
            copy = dict(rec)
            copy.pop("seq", None)
            self._write(copy)
            n += 1
        return n

    @property
    def records_written(self) -> int:
        return self._seq

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
def compact_fragments(
    writer: StreamingTraceWriter,
    store: ResultStore,
    keys: Sequence[str],
    extract=None,
    skip_missing: bool = False,
) -> int:
    """Stream cell trace fragments from *store* into *writer*, in order.

    *keys* fixes the merge order (always the sweep's input order, never
    completion order — the byte-identity discipline).  *extract* pulls
    the fragment's record list out of a cell's result payload.  With
    ``skip_missing`` (the graceful-interrupt path) absent cells are
    skipped instead of raising, so a partial sweep still compacts every
    completed cell.  Returns the number of records written.
    """
    if extract is None:
        extract = lambda result: result["trace"]  # noqa: E731
    total = 0
    for key in keys:
        if skip_missing and not store.has(key):
            continue
        total += writer.extend(extract(store.get(key)))
    return total

