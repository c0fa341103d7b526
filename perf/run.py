"""The benchmark's one command.

    python3 perf/run.py                         # all six workloads, both runs
    python3 perf/run.py --workload sim-scale    # one workload, both runs
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in a fresh subprocess (``harness.py``) with the library's
own defaults: no ``REPRO_*`` variable may be set.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` (or ``--traced``) records
spans in the harness, writes ``perf/out/trace-<workload>.json`` and reports
the per-layer metrics.  Every metric is printed by name with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output checked out; 1 on a correctness failure;
2 when the run could not start (no source tree, ``REPRO_*`` set); 3 when a
workload crashed or overran its hard timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import Any, Dict, List, NoReturn

PERF_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(PERF_DIR))

import inputs  # noqa: E402

#: a hung cluster or worker fails the run instead of stalling it; the
#: benchmark's caller allows 180 s
HARD_TIMEOUT_S = 150


def fail(status: int, message: str) -> NoReturn:
    print(f"perf/run.py: {message}", file=sys.stderr)
    raise SystemExit(status)


def preflight() -> Dict[str, Any]:
    """Refuse to run what would not be a measurement of this checkout."""
    forced = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if forced:
        fail(2, f"unset {', '.join(forced)}: the benchmark measures library defaults")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        fail(2, f"no library source under {ROOT / 'src'}")
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except OSError as exc:
        fail(2, f"cannot read BENCHMARK.json: {exc}")


def run_child(workload: str, seed: int, seconds: float, trace: int, preset: str) -> Dict[str, Any]:
    """One harness subprocess in its own process group, killed on overrun."""
    result_file = inputs.result_path(workload, trace)
    result_file.unlink(missing_ok=True)
    command = [
        sys.executable, str(PERF_DIR / "harness.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--preset", preset,
    ]
    # the child's own chatter goes to stderr: stdout carries only results
    child = subprocess.Popen(
        command, cwd=str(ROOT), stdout=sys.stderr, start_new_session=True
    )
    try:
        status = child.wait(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the whole group: fabric workers must not outlive a hung harness
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(3, f"{workload}: no result within {HARD_TIMEOUT_S} s, killed")
    if status != 0:
        fail(3, f"{workload}: harness exited with status {status}")
    with open(result_file) as fh:
        return json.load(fh)


def render(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, under a header saying what ran."""
    fp = result["host"]
    plain = result["reps"]["plain"]
    lines = [
        f"== {result['workload']}  trace={result['trace']}  seed={result['seed']}  "
        f"preset={result['preset']}  seconds={result['seconds']:g}",
        f"   python {fp['python']}  numpy {fp['numpy']}  nproc {fp['nproc']}  "
        f"kernel={fp['kernel_backend']}  store={fp['event_store']}  "
        f"commit {fp['git_commit']}",
        f"   sizes {json.dumps(result['sizes'], sort_keys=True)}",
        f"   reps plain={len(plain)} traced={len(result['reps']['traced'])} "
        f"(after one discarded warm-up); one rep = "
        f"{plain[0]['units']:g} {result['unit_of_work']}",
        "   host slowdown median {median:.2f} (min {min:.2f}, max {max:.2f}): "
        "throughput and setup_s are scaled by it rep by rep".format(
            **result["host_slowdown"]),
    ]
    if result["raw"]:
        lines.append(
            "   as measured, before scaling: throughput {throughput:.6g} 1/s, "
            "setup_s {setup_s:.6g} s".format(**result["raw"])
        )
    if result["workload"].startswith("kv-live"):
        lines.append(
            "   loopback, no injected delay: latency is processor time only"
        )
    for name, metric in result["metrics"].items():
        lines.append(f"   {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    lines.append(
        f"   {verdict}: {result['failed']} of {result['attempted']} checked "
        f"operations failed"
    )
    lines.extend(f"   problem: {p}" for p in result["problems"])
    return "\n".join(lines)


def final_line(results: List[Dict[str, Any]]) -> str:
    """The result object; metric names carry the workload when there are several
    (the two runs of one workload report disjoint names)."""
    several = len({r["workload"] for r in results}) > 1
    metrics: Dict[str, Any] = {}
    for result in results:
        prefix = f"{result['workload']}/" if several else ""
        for name, metric in result["metrics"].items():
            metrics[prefix + name] = metric
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all",
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--traced", dest="trace", action="store_const", const="1",
                        help="same as --trace 1")
    parser.add_argument("--smoke", dest="preset", action="store_const",
                        const="smoke", default="full",
                        help="tiny sizes, to exercise the harness itself")
    args = parser.parse_args(argv)

    spec = preflight()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    results = []
    for name in names:
        for trace in traces:
            result = run_child(name, args.seed, seconds, trace, args.preset)
            print(render(result), flush=True)
            results.append(result)
    print(final_line(results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
