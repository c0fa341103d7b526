"""One workload, measured in this process; ``run.py`` starts it as a child.

Untraced (``--trace 0``): a discarded warm-up rep, then reps for
``--seconds`` seconds; the end-to-end metrics come from these.  The first rep
runs the warm-up's input again, each later rep the next input of the seed.

Traced (``--trace 1``): a warm-up, untraced reps for a third of the time
(the workload-level figures), then reps with spans and per-call timers on
(self-times, counts, ``trace.overhead_ratio``), then the workload's isolated
layer probes — all on the seed's first input.  Every per-layer name in
``BENCHMARK.json`` is reported; a layer this workload does not exercise
reads 0.

The result is written to ``perf/out/result-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import resource
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the library is measured from this checkout's source tree, nowhere else
sys.path.insert(1, str(ROOT / "src"))

import host  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads.base import Checks, Rep, same_counts  # noqa: E402

MIN_REPS = 2
#: run ``--seed s`` draws its inputs from seeds ``s * INPUTS_PER_SEED`` onwards
INPUTS_PER_SEED = 1_000


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def repeat(workload, tracer, budget_s: float, probes: List[float],
           seeds: Iterator[int], keep_heavy: bool = False) -> List[Rep]:
    """Reps until *budget_s* has passed, and at least the workload's minimum,
    each on the input generated from the next of *seeds*.

    The calibration loop runs between reps (it collects garbage first); each
    rep is marked with the host slowdown seen just before and just after it.
    *probes* collects every slowdown probed during the run.  The large objects
    a rep hands back are dropped before the probe that follows it, unless the
    layer probes need the last rep's (*keep_heavy*).
    """
    min_reps = workload.sizes.get("min_reps", MIN_REPS)
    reps: List[Rep] = []
    started = time.perf_counter()
    before = host.probe()
    probes.append(before)
    while len(reps) < min_reps or time.perf_counter() - started < budget_s:
        seed = next(seeds)
        rep = workload.rep(tracer, seed)
        rep.seed = seed
        if reps:
            reps[-1].heavy.clear()
        if not keep_heavy:
            rep.heavy.clear()
        after = host.probe()
        probes.append(after)
        rep.slowdown = (before + after) / 2
        reps.append(rep)
        before = after
    return reps


def import_samples(name: str, preset: str) -> List[List[float]]:
    """``[seconds, host slowdown]`` of several imports of the workload and the
    library modules it needs, in one sacrificial interpreter."""
    command = [sys.executable, str(ROOT / "perf" / "imports.py"), name, preset]
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def tally(reps: List[Rep]) -> Checks:
    """Every rep's checks, plus: reps on one input agree on deterministic counts."""
    checks = Checks()
    first_on: Dict[int, Rep] = {}
    differing = 0
    for rep in reps:
        checks.merge(rep.checks)
        first = first_on.setdefault(rep.seed, rep)
        differing += not same_counts(rep.exact, first.exact)
    checks.count(
        len(reps), differing, "deterministic counts equal across reps on one input"
    )
    return checks


def measure(name: str, seed: int, seconds: float, trace: int, preset: str) -> Dict[str, Any]:
    spec = benchmark_spec()
    probes: List[float] = []
    import workloads

    first = seed * INPUTS_PER_SEED
    workload = workloads.make(name, first, inputs.sizes_for(preset, name))
    import repro

    if pathlib.Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported repro from {repro.__file__}, not this checkout")

    off = NullTracer()
    warmup = workload.rep(off, first)
    warmup.seed = first
    warmup.heavy.clear()
    imports: List[List[float]] = []
    traced: List[Rep] = []
    raw: Dict[str, float] = {}
    if trace == 0:
        # the first rep repeats the warm-up's input and must agree with it on
        # every count; each later rep takes the next input, so the run's median
        # is over many inputs and not the luck of one
        plain = repeat(workload, off, seconds, probes, itertools.count(first))
        imports = import_samples(name, preset)
        checks = tally([warmup] + plain)
        declared = spec["end_to_end"]
        values = {
            "throughput": stats.median([r.calibrated_rate for r in plain]),
            "setup_s": stats.median([s / slowdown for s, slowdown in imports])
            + stats.median([r.setup_s / r.slowdown for r in plain]),
            "peak_rss_mb": peak_rss_mb(),
        }
        # the same two as measured, so a reader sees when calibration and the
        # clock disagree
        raw = {
            "throughput": stats.median([r.rate for r in plain]),
            "setup_s": stats.median([s for s, _slowdown in imports])
            + stats.median([r.setup_s for r in plain]),
        }
    else:
        tracer = Tracer()
        # one input throughout: counts and layer figures are those of *first*
        same = itertools.repeat(first)
        plain = repeat(workload, off, seconds / 3, probes, same, keep_heavy=True)
        traced = repeat(workload, tracer, seconds / 3, probes, same)
        checks = tally([warmup] + plain + traced)
        declared = spec["per_layer"]
        values = workload.layers(plain, traced, tracer)
        values["trace.overhead_ratio"] = (
            stats.median([r.timed_s / r.slowdown for r in traced])
            / stats.median([r.timed_s / r.slowdown for r in plain])
        )
        values["failed_ratio"] = checks.failed / checks.attempted
        values["host.probe_ms"] = stats.median(probes) * sum(host.REFERENCE_MS)
        inputs.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(
            inputs.OUT_DIR / f"trace-{name}.json",
            workload=name, seed=seed, preset=preset,
        )

    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics not named in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if trace == 0 and missing:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")
    metrics = {
        # a layer this workload does not touch did no work: 0
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in units.items()
    }
    return {
        "workload": name,
        "unit_of_work": workload.unit,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "preset": preset,
        "sizes": workload.sizes,
        "host": host.fingerprint(str(ROOT)),
        "host_slowdown": {
            "median": stats.median(probes), "min": min(probes), "max": max(probes),
        },
        "imports": imports,
        "raw": raw,
        "reps": {
            kind: [
                {"setup_s": r.setup_s, "timed_s": r.timed_s, "units": r.units,
                 "slowdown": r.slowdown}
                for r in reps
            ]
            for kind, reps in (("plain", plain), ("traced", traced))
        },
        "exact": plain[0].exact,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--preset", choices=sorted(inputs.SIZES), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.preset)
    inputs.OUT_DIR.mkdir(exist_ok=True)
    with open(inputs.result_path(args.workload, args.trace), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
