"""``offline-nine``: replay and exhaustively validate the registered schemes.

One star execution is replayed through the eight scalable schemes, the
batch oracle is built over it and the five exact schemes are validated
against it pair by pair; the three inexact schemes (whose validation decodes
every false positive) are validated on a shorter execution.  The oracle is
*read* here (matrix compare, popcount, mismatch decode) where ``sim-stream``
writes it, and all nine schemes' hooks run where the simulator runs two.
``encoded`` (prime-power clocks, validation cubic in practice) is measured
per layer only, on a short execution.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import inputs
import stats
from spans import self_time_by_name
from workloads.base import Checks, Rep, best_of, clocked

from repro.clocks import replay_one
from repro.conformance.registry import all_schemes
from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.random_executions import execution_from_ops

EXACT = ("vector", "vector-sk", "inline-star", "inline-cover", "cluster")
INEXACT = ("lamport", "plausible", "hlc")
SCALABLE = EXACT + INEXACT
ALL_NINE = SCALABLE + ("encoded",)
HOOKS = ("on_send", "on_receive")


def time_hooks(algo, scheme: str, tracer) -> None:
    """Route *algo*'s send/receive hooks through per-call timers."""
    for hook in HOOKS:
        inner = getattr(algo, hook)
        label = f"clocks.{scheme}.{hook}"

        def timed(*args, _inner=inner, _label=label):
            started = time.perf_counter()
            result = _inner(*args)
            tracer.add(_label, time.perf_counter() - started)
            return result

        setattr(algo, hook, timed)


class OfflineWorkload:
    unit = "scheme-events"

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.specs = {spec.name: spec for spec in all_schemes()}
        assert set(self.specs) == set(ALL_NINE), sorted(self.specs)

    def build(self, seed: int):
        n = self.sizes["star_n"]
        graph, ops = inputs.star_ops(seed, n, self.sizes["steps"])
        _graph, short_ops = inputs.star_ops(
            seed + 1, n, self.sizes["inexact_steps"]
        )
        return (
            graph,
            execution_from_ops(graph, ops),
            execution_from_ops(graph, short_ops),
        )

    def _replay(self, scheme: str, graph, execution, tracer):
        algo = self.specs[scheme].build(graph, 0)
        if tracer.enabled:
            time_hooks(algo, scheme, tracer)
        with tracer.span(f"clocks.{scheme}.replay"):
            return replay_one(execution, algo)

    def _validate(self, schemes, assignments, oracle, tracer):
        reports = {}
        for scheme in schemes:
            with tracer.span(f"clocks.{scheme}.validate"):
                reports[scheme] = assignments[scheme].validate(oracle)
        return reports

    def rep(self, tracer, seed: int) -> Rep:
        setup_s, (graph, execution, short) = clocked(lambda: self.build(seed))
        walls = {}
        started = time.perf_counter()
        with tracer.span(self.name):
            assignments = {
                scheme: self._replay(scheme, graph, execution, tracer)
                for scheme in SCALABLE
            }
            walls["replay"] = time.perf_counter() - started
            with tracer.span("core.oracle.build"):
                oracle = HappenedBeforeOracle(execution)
            mark = time.perf_counter()
            reports = self._validate(EXACT, assignments, oracle, tracer)
            walls["validate_exact"] = time.perf_counter() - mark
            with tracer.span("offline.short_replay"):
                short_assignments = {
                    scheme: replay_one(short, self.specs[scheme].build(graph, 0))
                    for scheme in INEXACT
                }
                short_oracle = HappenedBeforeOracle(short)
            mark = time.perf_counter()
            reports.update(
                self._validate(INEXACT, short_assignments, short_oracle, tracer)
            )
            walls["validate_inexact"] = time.perf_counter() - mark
        timed_s = time.perf_counter() - started

        checks = Checks()
        for scheme in EXACT:
            report = reports[scheme]
            pairs = report.n_events * (report.n_events - 1)
            checks.count(
                pairs,
                len(report.false_negatives) + len(report.false_positives),
                f"{scheme} characterizes happened-before",
            )
        for scheme in INEXACT:
            report = reports[scheme]
            checks.count(
                report.n_events * (report.n_events - 1),
                len(report.false_negatives),
                f"{scheme} is consistent",
            )
        for scheme, assignment in assignments.items():
            checks.count(
                execution.n_events, execution.n_events - len(assignment),
                f"{scheme} events final after the termination flush",
            )
        widths = {s: assignments[s].max_elements() for s in SCALABLE}
        # a star's minimum cover is its centre, so 2|VC|+2 = 4 as well
        for scheme, want in (
            ("inline-star", 4),
            ("inline-cover", 4),
            ("vector", graph.n_vertices),
        ):
            checks.expect(
                widths[scheme] == want, f"{scheme} width is {want}"
            )
        exact = {
            "events": execution.n_events,
            "short_events": short.n_events,
            "widths": widths,
            "false_positives": {
                s: len(reports[s].false_positives) for s in INEXACT
            },
        }
        return Rep(
            setup_s, timed_s, len(SCALABLE) * execution.n_events, checks, exact,
            extra={"walls": walls},
            heavy={
                "graph": graph,
                "execution": execution,
                "oracle": oracle,
                "assignments": {**assignments, **short_assignments},
            },
        )

    # ------------------------------------------------------------------
    def layers(self, plain: List[Rep], traced: List[Rep], tracer) -> Dict[str, float]:
        last = plain[-1]
        events = last.exact["events"]
        short_events = last.exact["short_events"]

        def section(key: str) -> float:
            return stats.median([r.extra["walls"][key] for r in plain])

        out = {
            "replay_events_per_s": len(SCALABLE) * events / section("replay"),
            "validate_exact_pairs_per_s":
                len(EXACT) * events ** 2 / section("validate_exact"),
            "validate_inexact_pairs_per_s":
                len(INEXACT) * short_events ** 2 / section("validate_inexact"),
        }
        assignments = dict(last.heavy["assignments"])
        graph = last.heavy["graph"]
        _g, ops = inputs.star_ops(
            self.seed + 2, self.sizes["star_n"], self.sizes["encoded_steps"]
        )
        tiny = execution_from_ops(graph, ops)
        assignments["encoded"] = self._replay("encoded", graph, tiny, tracer)
        report = self._validate(
            ["encoded"], assignments, HappenedBeforeOracle(tiny), tracer
        )["encoded"]
        if not report.characterizes:
            raise AssertionError("encoded clock does not characterize causality")

        own = self_time_by_name(tracer.spans)
        for scheme in ALL_NINE:
            assignment = assignments[scheme]
            for hook in HOOKS:
                calls, busy = tracer.tallies[f"clocks.{scheme}.{hook}"]
                out[f"clocks.{scheme}.{hook}_us"] = busy / calls * 1e6
            out[f"clocks.{scheme}.validate_s"] = stats.median(
                own[f"clocks.{scheme}.validate"]
            )
            out[f"clocks.{scheme}.max_elements"] = assignment.max_elements()
            ids = [eid for eid, _ts in assignment.items()]
            pairs = inputs.sample_pairs(self.seed, ids, self.sizes["compare_pairs"])
            precedes = assignment.precedes

            def compare() -> int:
                return sum(1 for e, f in pairs if precedes(e, f))

            out[f"clocks.{scheme}.compare_us"] = (
                best_of(compare) / len(pairs) * 1e6
            )
        out.update(self._kernel_layers(last.heavy["execution"], last.heavy["oracle"]))
        return out

    def _kernel_layers(self, execution, oracle) -> Dict[str, float]:
        out = {
            "core.kernel.pure.build_s": best_of(
                lambda: HappenedBeforeOracle(execution, backend="pure")
            ),
            # 0 when numpy is absent: the layer is not there to time
            "core.kernel.numpy.build_s": best_of(
                lambda: HappenedBeforeOracle(execution, backend="numpy")
            ) if numpy_available() else 0.0,
        }
        pairs = inputs.sample_pairs(
            self.seed, oracle.event_order, self.sizes["query_pairs"]
        )
        hb = oracle.happened_before

        def query() -> int:
            return sum(1 for e, f in pairs if hb(e, f))

        out["core.oracle.query_pairs_per_s"] = len(pairs) / best_of(query)
        out["core.oracle.relation_counts_s"] = best_of(oracle.relation_counts)
        return out
