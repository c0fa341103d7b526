"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_clock, build_topology, main
from repro.obs import load_trace


class TestSimulate:
    def test_basic_run(self, capsys):
        rc = main(["simulate", "--topology", "star", "--n", "6",
                   "--events", "10", "--clocks", "inline", "vector"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inline" in out and "vector" in out
        assert "vertex cover" in out

    def test_all_clock_names(self, capsys):
        rc = main([
            "simulate", "--n", "6", "--events", "5", "--fifo",
            "--clocks", "inline", "inline-star", "vector", "vector-sk",
            "lamport", "encoded", "cluster", "plausible",
            "inline-cover", "hlc",  # every conformance-registry name works
        ])
        assert rc == 0

    def test_piggyback_transport(self, capsys):
        rc = main(["simulate", "--n", "5", "--events", "8",
                   "--transport", "piggyback"])
        assert rc == 0

    def test_online_oracle_flag(self, capsys):
        rc = main(["simulate", "--n", "5", "--events", "8",
                   "--online-oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("online oracle: "))
        assert re.fullmatch(
            r"online oracle: \d+ appends \(\d+ clock entries\)", line
        )

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--events", "3", "--online-oracle"],
        ["conformance", "--trials", "2"],
    ])
    def test_stray_environment_is_not_read(self, argv, capsys, monkeypatch):
        # both variables used to select a recorder / kernel, and a value
        # outside their choices was a traceback in every command
        assert main(argv) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("REPRO_EVENT_STORE", "bogus")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        assert main(argv) == 0
        assert capsys.readouterr().out == unset

    def test_online_oracle_matches_default_validation(self, capsys):
        # identical seed with and without the streaming oracle must print
        # the identical validation table (the oracle flavors agree)
        args = ["simulate", "--n", "5", "--events", "10",
                "--clocks", "inline", "vector"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--online-oracle"]) == 0
        online = capsys.readouterr().out
        # the flag adds exactly one line, above the table
        extra = [ln for ln in online.splitlines() if ln not in plain.splitlines()]
        assert len(extra) == 1 and extra[0].startswith("online oracle: ")
        assert online.replace(extra[0] + "\n", "") == plain

    def test_save_and_validate_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        rc = main(["simulate", "--n", "5", "--events", "8",
                   "--save-trace", trace])
        assert rc == 0
        rc = main(["validate", trace, "--clocks", "inline", "lamport"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    @pytest.mark.parametrize(
        "topology", ["star", "cycle", "clique", "path", "double-star",
                     "tree", "random"]
    )
    def test_every_topology(self, topology, capsys):
        rc = main(["simulate", "--topology", topology, "--n", "6",
                   "--events", "5"])
        assert rc == 0


class TestSizes:
    def test_sizes_output(self, capsys):
        rc = main(["sizes", "--n", "32", "--k", "1000", "--cover", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inline bits" in out
        assert "crossover" not in out or "15" in out
        assert "15" in out  # the n/2-1 crossover for n=32


class TestLowerBounds:
    @pytest.mark.parametrize("lemma", ["2.1", "2.2", "2.3", "2.4"])
    def test_adversaries_refute(self, lemma, capsys):
        rc = main(["lower-bound", lemma, "--n", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refuted=True" in out

    def test_theorem_4_4(self, capsys):
        rc = main(["lower-bound", "4.4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dimension > 2: True" in out


class TestSync:
    def test_sync_run(self, capsys):
        rc = main(["sync", "--topology", "star", "--n", "6", "--events", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mismatches vs oracle: 0" in out
        assert "d=1" in out

    def test_sync_on_clique(self, capsys):
        rc = main(["sync", "--topology", "clique", "--n", "4",
                   "--events", "6"])
        assert rc == 0


class TestChaos:
    def test_quick_sweep_passes(self, capsys):
        rc = main(["chaos", "--quick", "--n", "6", "--events", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all scenario × clock invariants hold" in out
        assert "reliable" in out
        for scenario in ("burst-loss-30", "duplication", "crash-recovery"):
            assert scenario in out

    def test_unreliable_mode(self, capsys):
        rc = main(["chaos", "--quick", "--n", "5", "--events", "6",
                   "--unreliable"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fire-and-forget" in out

    def test_fifo_requiring_clock_skipped(self, capsys):
        rc = main(["chaos", "--quick", "--n", "5", "--events", "6",
                   "--clocks", "vector-sk", "vector"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipped FIFO-requiring clocks: vector-sk" in out

    def test_interrupt_without_kept_store(self, tmp_path, capsys,
                                          monkeypatch):
        """Exit 130, the finished cells' trace flushed, no --resume advice
        about a temporary store that is already gone."""
        monkeypatch.setenv("REPRO_FABRIC_TEST_INTERRUPT", "1")
        trace = tmp_path / "t.jsonl"
        rc = main(["chaos", "--quick", "--events", "6",
                   "--trace-out", str(trace)])
        err = capsys.readouterr().err
        assert rc == 130
        assert "chaos sweep interrupted (1 cell(s) completed" in err
        assert "--resume" not in err
        records = load_trace(trace)
        assert [r["attrs"]["scenario"] for r in records
                if r["type"] == "span-end"] == ["burst-loss-30"]


class TestExperiments:
    def test_quick_reproduction(self, capsys):
        rc = main(["experiments"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Theorem 4.2" in out
        assert "refuted: True" in out
        assert "dimension > 2: True" in out


class TestHelpers:
    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            build_topology("moebius", 5, 0)

    def test_unknown_clock(self):
        from repro.topology import generators

        with pytest.raises(ValueError):
            build_clock("sundial", generators.star(3))


class TestMetrics:
    def test_fresh_run_prints_registry_json(self, capsys):
        import json

        rc = main(["metrics", "--topology", "star", "--n", "5",
                   "--events", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["schema"] == "repro.metrics/1"
        assert data["counters"]["sim.events_total"] > 0
        assert any(
            k.startswith("clock.finalization_delay_events")
            for k in data["histograms"]
        )

    def test_from_trace_merges_files(self, tmp_path, capsys):
        import json

        t1 = str(tmp_path / "a.jsonl")
        t2 = str(tmp_path / "b.jsonl")
        for t in (t1, t2):
            assert main(["chaos", "--quick", "--events", "6",
                         "--trace-out", t]) == 0
        capsys.readouterr()
        rc = main(["metrics", "--from-trace", t1, t2])
        out = capsys.readouterr().out
        assert rc == 0
        merged = json.loads(out)
        # identical runs merged twice: counters double
        from repro.obs import load_trace, registry_from_trace

        one = registry_from_trace(load_trace(t1)).as_dict()
        for key, value in one["counters"].items():
            assert merged["counters"][key] == 2 * value

    def test_output_file(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        rc = main(["metrics", "--n", "5", "--events", "6",
                   "--output", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.metrics/1"


class TestMetricsReportTool:
    def test_renders_markdown(self, tmp_path, capsys):
        import subprocess
        import sys
        from pathlib import Path

        trace = str(tmp_path / "t.jsonl")
        assert main(["chaos", "--quick", "--events", "6",
                     "--trace-out", trace]) == 0
        capsys.readouterr()
        tool = Path(__file__).resolve().parent.parent / "tools" / "metrics_report.py"
        proc = subprocess.run(
            [sys.executable, str(tool), trace],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "### Counters" in proc.stdout
        assert "### Histograms" in proc.stdout
        assert "clock.finalization_delay_events" in proc.stdout

    def test_bad_input_exits_2(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        tool = Path(__file__).resolve().parent.parent / "tools" / "metrics_report.py"
        proc = subprocess.run(
            [sys.executable, str(tool), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestConformance:
    def test_small_campaign_passes(self, capsys):
        rc = main(["conformance", "--trials", "12", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conformance: OK" in out
        assert "exact-vs-hb" in out and "oracle-differential" in out

    def test_topology_subset_and_report(self, tmp_path, capsys):
        import json

        report = tmp_path / "mismatches.jsonl"
        rc = main(["conformance", "--trials", "6", "--seed", "1",
                   "--topology", "star", "--report", str(report)])
        capsys.readouterr()
        assert rc == 0
        lines = [json.loads(l) for l in report.read_text().splitlines()]
        assert lines[0]["run"]["kind"] == "conformance"
        summary = [r for r in lines if r.get("name") == "summary"]
        assert summary and summary[0]["attrs"]["mismatches"] == 0

    def test_corpus_replay(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).resolve().parent / "conformance" / "corpus"
        rc = main(["conformance", "--trials", "0", "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pinned case(s), 0 mismatch(es)" in out


class TestBadPathExitCodes:
    """Every subcommand must fail cleanly (stderr + exit 1) on bad input."""

    def _expect_failure(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1, f"{argv} returned {rc}"
        assert "repro: error:" in captured.err, f"{argv}: no stderr message"
        return captured.err

    def test_simulate_unwritable_save_trace(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "simulate", "--n", "4", "--events", "4",
            "--save-trace", str(tmp_path / "no" / "such" / "dir" / "t.json"),
        ])

    def test_simulate_unwritable_trace_out(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "simulate", "--n", "4", "--events", "4",
            "--trace-out", str(tmp_path / "missing" / "t.jsonl"),
        ])

    def test_validate_missing_trace(self, tmp_path, capsys):
        self._expect_failure(
            capsys, ["validate", str(tmp_path / "nope.json")]
        )

    def test_validate_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._expect_failure(capsys, ["validate", str(bad)])

    def test_metrics_missing_trace(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "metrics", "--from-trace", str(tmp_path / "nope.jsonl")
        ])

    def test_metrics_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        self._expect_failure(capsys, ["metrics", "--from-trace", str(bad)])

    def test_metrics_unwritable_output(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "metrics", "--n", "4", "--events", "4",
            "--output", str(tmp_path / "no" / "dir" / "m.json"),
        ])

    def test_sizes_rejects_bad_n(self, capsys):
        self._expect_failure(capsys, ["sizes", "--n", "0"])

    def test_sizes_rejects_bad_k(self, capsys):
        self._expect_failure(capsys, ["sizes", "--n", "8", "--k", "0"])

    def test_sizes_rejects_cover_larger_than_n(self, capsys):
        # used to print a nonsense table and exit 0
        self._expect_failure(
            capsys, ["sizes", "--n", "8", "--k", "100", "--cover", "20"]
        )

    def test_sizes_rejects_nonpositive_cover(self, capsys):
        self._expect_failure(capsys, ["sizes", "--n", "8", "--cover", "0"])

    def test_chaos_unwritable_trace_out(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "chaos", "--quick", "--n", "4", "--events", "4",
            "--trace-out", str(tmp_path / "no" / "dir" / "t.jsonl"),
        ])

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_chaos_rejects_non_finite_retry_timeout(self, capsys, timeout):
        # used to be a ValueError traceback from hashing the cell spec
        err = self._expect_failure(capsys, [
            "chaos", "--quick", "--n", "4", "--events", "4",
            "--retry-timeout", timeout,
        ])
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "placement", [[], ["--workers", "2"]], ids=["flagless", "workers2"]
    )
    def test_chaos_refuses_a_clock_its_topology_cannot_run(self, placement, capsys):
        # used to run every cell max_retries times, then report a cell failure
        err = self._expect_failure(capsys, [
            "chaos", "--topology", "tree", "--clocks", "inline-star", "vector",
            "--n", "5", "--events", "10", "--quick", *placement,
        ])
        assert err == (
            "repro: error: clock 'inline-star' cannot run on topology "
            "'tree': it needs a star centered at process 0\n"
        )

    def test_conformance_missing_corpus(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "conformance", "--trials", "0",
            "--corpus", str(tmp_path / "no-corpus"),
        ])

    def test_conformance_unwritable_report(self, tmp_path, capsys):
        self._expect_failure(capsys, [
            "conformance", "--trials", "1",
            "--report", str(tmp_path / "no" / "dir" / "r.jsonl"),
        ])

    def test_conformance_negative_trials(self, capsys):
        self._expect_failure(capsys, ["conformance", "--trials", "-3"])

    def test_conformance_zero_chunk_size(self, tmp_path, capsys):
        # used to be a ValueError traceback from spec building
        self._expect_failure(capsys, [
            "conformance", "--trials", "4",
            "--fabric", str(tmp_path / "s"), "--chunk-size", "0",
        ])

    @pytest.mark.parametrize("command", ["chaos", "conformance"])
    def test_sweep_zero_workers(self, command, capsys):
        err = self._expect_failure(capsys, [command, "--workers", "0"])
        assert "workers must be >= 1" in err

    @pytest.mark.parametrize("command", ["chaos", "conformance"])
    def test_sweep_resume_without_store(self, command, capsys):
        err = self._expect_failure(capsys, [command, "--resume"])
        assert "--resume requires --fabric DIR" in err

    def test_chaos_refuses_held_store_in_cli_words(self, tmp_path, capsys):
        argv = ["chaos", "--quick", "--n", "4", "--events", "4",
                "--fabric", str(tmp_path / "s")]
        assert main(argv) == 0
        capsys.readouterr()
        err = self._expect_failure(capsys, argv)
        assert "already holds 3 cell(s)" in err
        assert "--resume" in err and "resume=True" not in err
        assert main(argv + ["--resume"]) == 0

    @pytest.mark.parametrize("argv", [
        ["lower-bound", "9.9"],          # unknown lemma
        ["sync", "--topology", "moon"],  # unknown topology
        ["simulate", "--transport", "pigeon"],
        ["chaos", "--clocks", "nosuch"],  # these three were tracebacks
        ["simulate", "--clocks", "nosuch"],
        ["metrics", "--clocks", "nosuch"],
        ["chaos", "--jobs", "2"],         # removed: --workers is the flag
        ["experiments", "--jobs", "2"],
        ["simulate", "--store", "columnar"],  # removed: one recorder
    ])
    def test_argparse_rejects_bad_choices(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
