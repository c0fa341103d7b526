"""Resumable, placement-independent result store for fabric runs.

One directory per sweep; one file per completed cell, named by the
cell's content-hash key (:func:`repro.fabric.hashing.cell_key`) and
holding the canonical JSON of ``{schema, key, spec, result}``.  The
design invariants:

- **Atomic completion.**  A cell file appears via write-to-temp +
  :func:`os.replace`, so a worker SIGKILLed mid-write never leaves a
  truncated cell behind — the cell is simply absent and gets recomputed
  on resume or reassignment.
- **Idempotent recompute.**  Cells are deterministic functions of their
  spec, so a straggler finishing a cell that was already reassigned (and
  completed elsewhere) rewrites the same bytes; last-write-wins is
  harmless by construction.
- **Byte-identical stores.**  Because file names are content hashes and
  file bodies are canonical JSON of deterministic results, a store
  filled serially, by parallel workers, or across several
  interrupted-and-resumed runs ends up with identical bytes.
  :meth:`ResultStore.digest` condenses that into one sha256 for CI to
  compare.

The store has no manifest and no lock file: the directory *is* the
state, which is what makes crash-resume trivially correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.fabric.hashing import FABRIC_SCHEMA, canonical_json


class StoreError(RuntimeError):
    """A result-store file is missing, malformed, or mismatched."""


class ResultStore:
    """Directory-backed map from cell key to completed cell record."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._cells = self.root / "cells"
        self._cells.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed cell key {key!r}")
        return self._cells / f"{key}.json"

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def put(
        self, key: str, spec: Mapping[str, Any], result: Any
    ) -> Path:
        """Persist one completed cell atomically; returns its path.

        The body is canonical JSON plus a trailing newline — a pure
        function of ``(key, spec, result)`` — so every writer of the
        same cell produces the same bytes.
        """
        body = canonical_json(
            {
                "schema": FABRIC_SCHEMA,
                "key": key,
                "spec": dict(spec),
                "result": result,
            }
        ) + "\n"
        target = self._path(key)
        fd, tmp = tempfile.mkstemp(
            dir=str(self._cells), prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return target

    def load(self, key: str) -> Dict[str, Any]:
        """The full stored record ``{schema, key, spec, result}``."""
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except OSError as exc:
            raise StoreError(f"cell {key} not in store: {exc}") from exc
        except ValueError as exc:
            raise StoreError(f"cell {key} is corrupt: {exc}") from exc
        if (
            not isinstance(record, dict)
            or record.get("schema") != FABRIC_SCHEMA
            or record.get("key") != key
        ):
            raise StoreError(
                f"cell {key}: bad schema/key in {path.name}"
            )
        return record

    def get(self, key: str) -> Any:
        """Just the result payload of a completed cell."""
        return self.load(key)["result"]

    def keys(self) -> List[str]:
        """Sorted keys of every completed cell."""
        return sorted(p.stem for p in self._cells.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def iter_results(self, keys: Iterator[str]) -> Iterator[Any]:
        """Stream result payloads for *keys*, one loaded at a time.

        This is the bounded-memory read path the report merges use: a
        sweep is folded cell by cell, never holding more than one cell's
        payload.
        """
        for key in keys:
            yield self.get(key)

    # ------------------------------------------------------------------
    def digest(self, keys: Optional[List[str]] = None) -> str:
        """One sha256 over the store's contents (order-independent).

        Hashes ``key:sha256(file bytes)`` lines in sorted key order.
        Two stores produced by *any* placement of the same sweep — or by
        an interrupted run resumed to completion — have equal digests;
        the fabric-smoke CI job pins exactly that.
        """
        h = hashlib.sha256()
        for key in sorted(keys if keys is not None else self.keys()):
            body = self._path(key).read_bytes()
            h.update(key.encode())
            h.update(b":")
            h.update(hashlib.sha256(body).hexdigest().encode())
            h.update(b"\n")
        return h.hexdigest()
