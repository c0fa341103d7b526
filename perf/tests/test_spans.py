"""Span bookkeeping and the self-time arithmetic."""

import json

import pytest

from spans import NullTracer, Tracer, covered, self_time_by_name, self_times


def span(sid, name, start, end, parent=None):
    return [sid, name, start, end, parent]


def test_child_coverage_is_subtracted():
    spans = [span(0, "rep", 0.0, 10.0), span(1, "run", 1.0, 4.0, 0),
             span(2, "freeze", 5.0, 7.0, 0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)


def test_nesting_subtracts_only_direct_children():
    spans = [span(0, "rep", 0.0, 10.0), span(1, "run", 0.0, 8.0, 0),
             span(2, "append", 1.0, 3.0, 1)]
    own = self_times(spans)
    assert own[0] == pytest.approx(2.0)   # grandchild already inside "run"
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)


def test_overlapping_children_are_counted_once():
    spans = [span(0, "rep", 0.0, 10.0), span(1, "a", 1.0, 5.0, 0),
             span(2, "b", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_child_is_clipped_to_its_parent():
    spans = [span(0, "rep", 0.0, 4.0), span(1, "late", 3.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_zero_length_spans():
    spans = [span(0, "rep", 2.0, 2.0), span(1, "inner", 2.0, 2.0, 0)]
    assert self_times(spans) == {0: 0.0, 1: 0.0}
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_by_name_groups_in_start_order():
    spans = [span(0, "run", 0.0, 1.0), span(1, "run", 2.0, 5.0)]
    assert self_time_by_name(spans) == {"run": [1.0, 3.0]}


def test_tracer_records_parents_tallies_and_counts(tmp_path):
    tracer = Tracer()
    with tracer.span("rep"):
        with tracer.span("run"):
            tracer.add("hook", 0.25)
            tracer.add("hook", 0.5)
            tracer.count("bytes", 40)
        with tracer.span("freeze"):
            pass
    names = [(s[1], s[4]) for s in tracer.spans]
    assert names == [("rep", None), ("run", 0), ("freeze", 0)]
    assert all(s[3] >= s[2] for s in tracer.spans)
    assert tracer.tallies["hook"] == [2, 0.75]
    assert tracer.counts == {"bytes": 40}
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        (tracer.spans[0][3] - tracer.spans[0][2])
        - (tracer.spans[1][3] - tracer.spans[1][2])
        - (tracer.spans[2][3] - tracer.spans[2][2])
    )
    path = tmp_path / "trace.json"
    tracer.dump(path, workload="w")
    doc = json.loads(path.read_text())
    assert doc["workload"] == "w"
    assert doc["spans"][1] == {
        "id": 1, "name": "run", "start": tracer.spans[1][2],
        "end": tracer.spans[1][3], "parent": 0,
    }
    assert doc["tallies"]["hook"] == {"calls": 2, "busy_s": 0.75}


def test_span_closes_when_the_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("rep"):
            raise RuntimeError("boom")
    assert tracer.spans[0][3] is not None
    with tracer.span("next"):
        pass
    assert tracer.spans[1][4] is None


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("rep"):
        tracer.add("hook", 1.0)
        tracer.count("bytes", 1)
    assert not tracer.enabled
