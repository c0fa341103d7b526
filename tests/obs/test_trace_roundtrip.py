"""End-to-end trace round-trip: ``--trace-out`` → reload → same totals.

Pins the acceptance invariants of the observability layer:

- a chaos run's trace, reloaded with :func:`load_trace` and folded with
  :func:`registry_from_trace`, reproduces the in-memory report's registry
  totals exactly;
- the trace and the printed table are byte-identical wherever the sweep's
  cells run: in-process, ``--workers 2``, ``--fabric DIR --workers 2``;
- the finalization-delay histogram for the star inline scheme is non-empty.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.cli import main
from repro.obs import load_trace, registry_from_trace
from repro.obs.tracing import run_header


def _matching(histograms, prefix):
    """The exported histograms whose full name starts with *prefix*."""
    return [h for name, h in histograms.items() if name.startswith(prefix)]


def _chaos_args(trace_path):
    return [
        "chaos", "--quick", "--events", "10",
        "--trace-out", str(trace_path),
    ]


class TestChaosTraceRoundTrip:
    def test_trace_reproduces_registry_totals(self, tmp_path, capsys):
        """Reloaded trace snapshots must sum to the run's own registry."""
        trace = tmp_path / "t.jsonl"
        assert main(_chaos_args(trace)) == 0
        capsys.readouterr()

        records = load_trace(trace)
        rebuilt = registry_from_trace(records)

        # re-run the identical sweep in-process to get the live registry
        from functools import partial

        from repro.cli import build_clock
        from repro.faults import default_scenarios, run_chaos
        from repro.sim.network import RetryPolicy
        from repro.topology import generators

        graph = generators.star(8)
        report = run_chaos(
            graph,
            {
                name: partial(build_clock, name, graph)
                for name in ("inline", "vector", "lamport")
            },
            scenarios=default_scenarios(graph.n_vertices, quick=True),
            events_per_process=10,
            seed=0,
            retry=RetryPolicy(timeout=4.0, max_retries=4),
        )
        assert rebuilt.as_dict() == report.metrics.as_dict()

    @pytest.mark.parametrize(
        "placement",
        [[], ["--workers", "2"], ["--fabric", "STORE", "--workers", "2"]],
        ids=["in-process", "workers-2", "kept-store-workers-2"],
    )
    def test_trace_byte_identical_across_placements(
        self, placement, tmp_path, capsys, monkeypatch
    ):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        store = tmp_path / "store"

        def sweep(trace, extra):
            assert main(_chaos_args(trace) + extra) == 0
            table = [
                line for line in capsys.readouterr().out.splitlines()
                # the two lines that name a path differ by design
                if not line.startswith(("structured trace written to",
                                        "fabric: store"))
            ]
            return trace.read_bytes(), table

        reference = sweep(tmp_path / "ref.jsonl", [])
        extra = [str(store) if a == "STORE" else a for a in placement]
        assert sweep(tmp_path / "t.jsonl", extra) == reference
        # without --fabric the store is temporary and gone by now
        assert list(scratch.iterdir()) == []
        assert store.exists() == ("--fabric" in placement)

    def test_inline_finalization_delay_nonempty(self, tmp_path, capsys):
        """The paper's central quantity must be present for the star scheme."""
        trace = tmp_path / "t.jsonl"
        assert main(_chaos_args(trace)) == 0
        capsys.readouterr()
        hists = registry_from_trace(load_trace(trace)).as_dict()["histograms"]
        inline = _matching(hists, "clock.finalization_delay_events{clock=inline}")
        assert inline, "inline finalization-delay histogram missing"
        for h in inline:
            assert h["count"] > 0
        # online schemes finalize at their own occurrence: delay always 0
        for h in _matching(hists, "clock.finalization_delay_events{clock=vector}"):
            assert h["max"] == 0

    def test_header_and_events_present(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(_chaos_args(trace)) == 0
        capsys.readouterr()
        records = load_trace(trace)
        head = run_header(records)
        assert head["kind"] == "chaos"
        assert head["topology"] == "star"
        # placement is deliberately absent: it must not affect trace bytes
        assert "workers" not in head and "fabric" not in head
        types = {r["type"] for r in records}
        assert {"run", "span-begin", "span-end", "event", "metrics"} <= types
        cells = [
            r for r in records
            if r["type"] == "event" and r["name"] == "cell"
        ]
        # 3 quick scenarios x 3 clocks
        assert len(cells) == 9
        assert all(c["attrs"]["ok"] for c in cells)


class TestSimulateValidateTraces:
    def test_simulate_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "sim.jsonl"
        rc = main([
            "simulate", "--topology", "star", "--n", "6", "--events", "8",
            "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        records = load_trace(trace)
        assert run_header(records)["kind"] == "simulate"
        registry = registry_from_trace(records)
        assert registry.counter_value("sim.events_total") > 0
        assert _matching(registry.as_dict()["histograms"], "clock.timestamp_elements")

    def test_validate_trace_roundtrip(self, tmp_path, capsys):
        exec_trace = tmp_path / "exec.json"
        obs_trace = tmp_path / "val.jsonl"
        assert main([
            "simulate", "--n", "5", "--events", "8",
            "--save-trace", str(exec_trace),
        ]) == 0
        assert main([
            "validate", str(exec_trace), "--trace-out", str(obs_trace),
        ]) == 0
        capsys.readouterr()
        records = load_trace(obs_trace)
        assert run_header(records)["kind"] == "validate"
        registry = registry_from_trace(records)
        assert registry.counter_value("validate.cells") > 0
        assert registry.counter_value("validate.runs") > 0

    def test_same_seed_same_trace_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        base = ["simulate", "--n", "5", "--events", "8", "--seed", "3"]
        assert main(base + ["--trace-out", str(a)]) == 0
        assert main(base + ["--trace-out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
