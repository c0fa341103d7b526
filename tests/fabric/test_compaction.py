"""StreamingTraceWriter / compact_fragments vs the in-memory RunTracer."""

from __future__ import annotations

import pytest

from repro.fabric import (
    ResultStore,
    StreamingTraceWriter,
    cell_key,
    compact_fragments,
)
from repro.obs.tracing import RunTracer, load_trace


def _fragment(i: int):
    """A headerless trace fragment like a fabric cell would return."""
    tracer = RunTracer(emit_header=False)
    tracer.begin_span("scenario", scenario=f"s{i}")
    tracer.event("cell", scenario=f"s{i}", value=i * 10)
    tracer.end_span("scenario", scenario=f"s{i}")
    return tracer.records


def test_streaming_writer_matches_runtracer_bytes(tmp_path):
    meta = {"n": 4, "seed": 0, "topology": "star"}
    reference = RunTracer(kind="chaos", run_id="fixed-id", meta=meta)
    reference.event("skipped-clocks", clocks=["vector-sk"])
    for i in range(3):
        reference.extend(_fragment(i))
    reference.event("sweep-summary", cells=3, ok=True)
    ref_path = tmp_path / "ref.jsonl"
    reference.write(ref_path)

    out_path = tmp_path / "streamed.jsonl"
    with StreamingTraceWriter(
        out_path, kind="chaos", run_id="fixed-id", meta=meta
    ) as writer:
        writer.event("skipped-clocks", clocks=["vector-sk"])
        for i in range(3):
            writer.extend(_fragment(i))
        writer.event("sweep-summary", cells=3, ok=True)
    assert out_path.read_bytes() == ref_path.read_bytes()


def test_streaming_writer_renumbers_seq(tmp_path):
    path = tmp_path / "t.jsonl"
    with StreamingTraceWriter(path, kind="run") as writer:
        # fragments arrive with their own local seq values; output seq
        # must be the single global order
        writer.extend([{"type": "event", "name": "a", "seq": 99}])
        writer.extend([{"type": "event", "name": "b", "seq": 0}])
        assert writer.records_written == 3  # header + 2
    records = load_trace(path)
    assert [r["seq"] for r in records] == [0, 1, 2]


def test_streaming_writer_close_is_idempotent(tmp_path):
    writer = StreamingTraceWriter(tmp_path / "t.jsonl", kind="run")
    writer.close()
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.event("late")


def test_compact_fragments_in_input_order(tmp_path):
    store = ResultStore(tmp_path / "s")
    keys = []
    for i in range(3):
        spec = {"kind": "t", "index": i}
        key = cell_key(spec)
        store.put(key, spec, {"trace": _fragment(i), "metrics": {}})
        keys.append(key)
    order = [keys[2], keys[0], keys[1]]  # input order != sorted order
    path = tmp_path / "compacted.jsonl"
    with StreamingTraceWriter(path, kind="chaos") as writer:
        n = compact_fragments(writer, store, order)
    assert n == 9  # three fragments x three records
    names = [
        r["attrs"]["scenario"] for r in load_trace(path)
        if r["type"] == "event" and r["name"] == "cell"
    ]
    assert names == ["s2", "s0", "s1"]


def test_compact_fragments_missing_key(tmp_path):
    store = ResultStore(tmp_path / "s")
    spec = {"kind": "t", "index": 0}
    key = cell_key(spec)
    store.put(key, spec, {"trace": _fragment(0), "metrics": {}})
    missing = cell_key({"kind": "t", "index": 1})
    path = tmp_path / "c.jsonl"
    with StreamingTraceWriter(path, kind="chaos") as writer:
        with pytest.raises(Exception):
            compact_fragments(writer, store, [key, missing])
    # the graceful-interrupt path skips instead
    with StreamingTraceWriter(path, kind="chaos") as writer:
        n = compact_fragments(
            writer, store, [key, missing], skip_missing=True
        )
    assert n == 3

