"""Tests for execution records: an execution is saved as its op list."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.conformance import load_corpus
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.execution import ExecutionError
from repro.core.random_executions import (
    execution_from_ops,
    ops_of,
    random_execution,
)
from repro.core.trace import (
    execution_from_dict,
    execution_to_dict,
    load_execution,
    save_execution,
)
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(__file__).resolve().parents[1] / "conformance" / "corpus"


def _message_table(ex):
    return [
        (m.msg_id, m.src, m.dst, m.delivered, m.send_event, m.recv_event)
        for m in ex.messages
    ]


def _reload(ex):
    """Round-trip through the JSON text, as a saved file does."""
    return execution_from_dict(json.loads(json.dumps(execution_to_dict(ex))))


def assert_same_execution(ex, ex2):
    assert ex2.n_processes == ex.n_processes
    assert ex2.graph == ex.graph
    assert [str(e) for e in ex2.all_events()] == [
        str(e) for e in ex.all_events()
    ]
    assert _message_table(ex2) == _message_table(ex)
    o1, o2 = HappenedBeforeOracle(ex), HappenedBeforeOracle(ex2)
    for ev in ex.all_events():
        assert o1.vector_clock(ev.eid) == o2.vector_clock(ev.eid)


class TestExecutionRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_preserves_everything(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(6, 0.4, rng)
        ex = random_execution(g, rng, steps=40)
        ex2 = _reload(ex)
        assert_same_execution(ex, ex2)
        assert ops_of(ex2) == ops_of(ex)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_round_trip_preserves_causality(self, seed):
        rng = random.Random(seed)
        g = generators.star(4)
        ex = random_execution(g, rng, steps=20)
        ex2 = _reload(ex)
        o1, o2 = HappenedBeforeOracle(ex), HappenedBeforeOracle(ex2)
        for ev in ex.all_events():
            assert o1.vector_clock(ev.eid) == o2.vector_clock(ev.eid)

    def test_undelivered_messages_survive(self):
        b = ExecutionBuilder(3)
        m = b.send(0, 1)
        b.send(2, 1)
        b.receive(1, 1)
        b.local(0)
        ex = b.freeze()
        ex2 = _reload(ex)
        assert [msg.msg_id for msg in ex2.undelivered_messages()] == [m]
        assert_same_execution(ex, ex2)

    def test_graphless_execution_round_trips(self):
        b = ExecutionBuilder(3)  # no topology declared
        m = b.send(0, 2)
        b.receive(2, m)
        b.local(1)
        ex = b.freeze()
        data = execution_to_dict(ex)
        assert data["edges"] is None
        assert data["ops"] == [["send", 0, 0, 2], ["local", 1], ["recv", 0]]
        ex2 = execution_from_dict(data)
        assert ex2.graph is None
        assert ex2.n_events == 3

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(1)
        ex = random_execution(generators.star(3), rng, steps=15)
        path = tmp_path / "trace.json"
        save_execution(ex, path)
        assert json.loads(path.read_text())["schema"] == "repro.execution/2"
        ex2 = load_execution(path)
        assert ops_of(ex2) == ops_of(ex)
        assert_same_execution(ex, ex2)

    def test_lowerbound_witness_round_trips(self):
        from repro.lowerbounds import theorem_4_4_witness
        from repro.lowerbounds.offline_star import (
            execution_dimension_exceeds_2,
        )

        ex = theorem_4_4_witness()
        ex2 = _reload(ex)
        assert_same_execution(ex, ex2)
        assert execution_dimension_exceeds_2(ex2)

    def test_simulator_run_round_trips(self, tmp_path):
        result = Simulation(generators.star(8), seed=3).run(
            UniformWorkload(events_per_process=12)
        )
        ex = result.execution
        assert ex.n_events > 100
        path = tmp_path / "sim.json"
        save_execution(ex, path)
        ex2 = load_execution(path)
        assert ops_of(ex2) == ops_of(ex)
        assert_same_execution(ex, ex2)


class TestValidationOnLoad:
    def test_bad_version_rejected(self):
        """A version-1 record (per-process streams) has no ops to load."""
        data = {
            "version": 1,
            "n_processes": 2,
            "graph": None,
            "events": [[{"kind": "send", "msg": 0}], []],
            "messages": [
                {"src": 0, "dst": 1, "send": [0, 1], "recv": None}
            ],
        }
        with pytest.raises(ExecutionError, match="no 'ops'"):
            execution_from_dict(data)

    def _record(self, ops, n=2, edges=None):
        return {"n_processes": n, "edges": edges, "ops": ops}

    def test_inconsistent_trace_rejected(self):
        """A receive whose message is never sent cannot load."""
        with pytest.raises(ExecutionError, match="unknown tag"):
            execution_from_dict(self._record([["recv", 0]]))

    def test_repeated_recv_rejected(self):
        ops = [["send", 0, 0, 1], ["recv", 0], ["recv", 0]]
        with pytest.raises(ExecutionError, match="already delivered"):
            execution_from_dict(self._record(ops))

    @pytest.mark.parametrize(
        "op", [["local", 2], ["send", 0, 5, 0], ["send", 0, 0, 7]]
    )
    def test_out_of_range_process_rejected(self, op):
        with pytest.raises(ExecutionError, match="out of range"):
            execution_from_dict(self._record([op]))

    def test_send_off_the_graph_rejected(self):
        with pytest.raises(ExecutionError):
            execution_from_dict(
                self._record([["send", 0, 1, 2]], n=3, edges=[[0, 1], [0, 2]])
            )

    def test_malformed_op_rejected(self):
        with pytest.raises(ExecutionError, match="malformed op"):
            execution_from_dict(self._record([["send", 0]]))


class TestCorpusCasesLoad:
    @pytest.mark.parametrize(
        "case", load_corpus(CORPUS), ids=lambda c: c.name
    )
    def test_corpus_case_loads_as_it_is(self, case):
        ex = load_execution(CORPUS / f"{case.name}.json")
        assert_same_execution(execution_from_ops(case.graph(), case.ops), ex)


def test_save_then_validate_output_is_pinned(tmp_path, capsys, monkeypatch):
    """``validate_seed7.txt`` was recorded with the per-process stream format."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "8", "--events", "20", "--seed", "7",
                 "--save-trace", "t.json"]) == 0
    assert main(["validate", "t.json",
                 "--clocks", "inline", "vector", "lamport"]) == 0
    expected = (GOLDEN / "validate_seed7.txt").read_text()
    assert capsys.readouterr().out == expected
