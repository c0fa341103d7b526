"""``BENCHMARK.json`` is well formed and ``run.py`` reports exactly its names.

The smoke preset runs all six workloads, both ways, through the real entry
point (fresh subprocesses, loopback sockets, fabric workers) in well under
thirty seconds.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import inputs
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # every run of every workload, traced or not, inside the caller's hour
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) < 3420


def run_py(*args, env=None):
    return subprocess.run(
        [sys.executable, str(run.PERF_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.fixture(scope="module")
def smoke():
    """``run.py --smoke`` over everything: (stdout lines, seconds taken)."""
    started = time.perf_counter()
    done = run_py("--smoke", "--seconds", "0")
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines(), elapsed


def test_smoke_finishes_all_six_workloads_in_thirty_seconds(smoke):
    lines, elapsed = smoke
    assert elapsed < 30.0
    headers = [line for line in lines if line.startswith("== ")]
    assert len(headers) == 2 * len(inputs.WORKLOADS)


def test_smoke_reports_every_named_metric_and_no_other(smoke, spec):
    lines, _elapsed = smoke
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    produced = set()
    for name in inputs.WORKLOADS:
        mine = {
            key.split("/", 1)[1]: metric
            for key, metric in final["metrics"].items()
            if key.startswith(name + "/")
        }
        assert set(mine) == set(units), name
        for key, metric in mine.items():
            assert metric["unit"] == units[key]
            assert isinstance(metric["value"], float)
        for metric in spec["end_to_end"]:
            assert mine[metric["name"]]["value"] > 0, (name, metric["name"])
        produced |= {key for key, metric in mine.items() if metric["value"]}
    # a named layer metric that no workload ever fills in is a dead name
    allowed_zero = {
        "failed_ratio", "net.retransmits", "net.request_timeouts",
        "fabric.cells_retried",
        # 64 pooled latencies at smoke size: too few for a p99
        "live_p99_ms",
    }
    assert set(units) - produced <= allowed_zero


def test_smoke_prints_every_metric_with_its_unit(smoke, spec):
    lines, _elapsed = smoke
    text = "\n".join(lines)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            text, re.M,
        ), metric["name"]


def test_driver_form_prints_one_result_object_last(spec):
    done = run_py("--workload", "sim-scale", "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    traced = run_py("--workload", "sim-scale", "--seed", "3", "--seconds", "0",
                    "--traced", "--smoke")
    assert traced.returncode == 0, traced.stderr[-2000:]
    final = json.loads(traced.stdout.splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in spec["per_layer"]}
    trace_file = inputs.OUT_DIR / "trace-sim-scale.json"
    trace = json.loads(trace_file.read_text())
    assert {"id", "name", "start", "end", "parent"} == set(trace["spans"][0])
    assert any(s["name"] == "sim.run" and s["parent"] is not None
               for s in trace["spans"])


def test_refuses_library_overrides_from_the_environment():
    env = dict(os.environ, REPRO_KERNEL_BACKEND="pure")
    done = run_py("--workload", "sim-scale", "--smoke", "--seconds", "0", env=env)
    assert done.returncode == 2
    assert "REPRO_KERNEL_BACKEND" in done.stderr
    assert done.stdout == ""


def test_fails_without_the_library_source(tmp_path):
    """A directory with only BENCHMARK.json and perf/ has nothing to measure."""
    import shutil

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.PERF_DIR, tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sim-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
