"""``sim-stream`` and ``sim-scale``: the simulator with and without the oracle.

Both run ``UniformWorkload`` over the 3/4/16 sequencer graph with the
``inline-cover`` and ``vector`` clocks attached.  ``sim-stream`` feeds the
online oracle during the run, freezes it and validates both clocks on
sampled pairs, so oracle appends and the freeze are in the timed region.
``sim-scale`` is a larger run with no oracle at all: an oracle change must
not move it, a scheduler, clock-hook or event-store change must.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Any, Dict, List, Sequence

import inputs
import stats
from spans import self_time_by_name
from workloads.base import Checks, Rep, best_of, clocked, medians

from repro.clocks import CoverInlineClock, VectorClock
from repro.core import ColumnarExecutionBuilder, ExecutionBuilder, IncrementalHBOracle
from repro.core.colstore import EventStore
from repro.core.random_executions import execution_from_ops
from repro.obs import MetricsRegistry
from repro.sim import EventScheduler, Simulation, UniformWorkload

CLOCKS = ("inline-cover", "vector")


class SimWorkload:
    unit = "events"

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.stream = name == "sim-stream"

    # ------------------------------------------------------------------
    def build(self, seed: int, clocks: Sequence[str] = CLOCKS,
              online_oracle: bool = False):
        graph, cover = inputs.sequencer_graph(seed)
        clock_map = {}
        if "inline-cover" in clocks:
            clock_map["inline-cover"] = CoverInlineClock(graph, cover)
        if "vector" in clocks:
            clock_map["vector"] = VectorClock(graph.n_vertices)
        sim = Simulation(
            graph, seed=seed, clocks=clock_map, online_oracle=online_oracle
        )
        workload = UniformWorkload(
            events_per_process=self.sizes["events_per_process"], p_local=0.3
        )
        return graph, cover, sim, workload

    def rep(self, tracer, seed: int) -> Rep:
        setup_s, (graph, cover, sim, workload) = clocked(
            lambda: self.build(seed, online_oracle=self.stream)
        )
        reports = {}
        started = time.perf_counter()
        with tracer.span(self.name):
            with tracer.span("sim.run"):
                res = sim.run(workload)
            if self.stream:
                with tracer.span("sim.freeze"):
                    oracle = res.hb_oracle()
                with tracer.span("sim.validate"):
                    for name, assignment in res.assignments.items():
                        reports[name] = assignment.validate_sampled(
                            oracle,
                            n_pairs=self.sizes["validate_pairs"],
                            seed=seed,
                        )
        timed_s = time.perf_counter() - started

        n_events = res.execution.n_events
        checks = Checks()
        for name, report in reports.items():
            # both clocks are exact: any mismatch in either direction fails
            checks.count(
                2 * self.sizes["validate_pairs"],
                len(report.false_negatives) + len(report.false_positives),
                f"{name} sampled validation",
            )
        for name, assignment in res.assignments.items():
            checks.count(
                n_events, n_events - len(assignment),
                f"{name} events final after the termination flush",
            )
        checks.expect(
            res.assignments["inline-cover"].max_elements() == 2 * len(cover) + 2,
            "inline-cover width is 2|VC|+2",
        )
        checks.expect(
            res.assignments["vector"].max_elements() == graph.n_vertices,
            "vector width is n",
        )
        inline = res.stats["inline-cover"]
        delay = res.metrics.histogram(
            "clock.finalization_delay_events", clock="inline-cover"
        )
        exact = {
            "events": n_events,
            "app_messages": res.app_messages,
            "finalized_online_ratio": res.fraction_finalized_during_run(
                "inline-cover"
            ),
            "control_messages": inline.control_messages,
            "payload_elements": {
                name: res.stats[name].app_payload_elements for name in CLOCKS
            },
            "finalization_delay_events_p50": delay.quantile(0.50),
            "finalization_delay_events_p99": delay.quantile(0.99),
        }
        return Rep(
            setup_s, timed_s, n_events, checks, exact,
            heavy={"execution": res.execution},
        )

    # ------------------------------------------------------------------
    def layers(self, plain: List[Rep], traced: List[Rep], tracer) -> Dict[str, float]:
        last = plain[-1]
        exact = last.exact
        own = self_time_by_name(tracer.spans)
        out = {
            "sim_events_per_s": stats.median([r.rate for r in plain]),
            "finalized_online_ratio": exact["finalized_online_ratio"],
            "sim.run_s": stats.median(own["sim.run"]),
            "sim.control_messages_per_event":
                exact["control_messages"] / exact["events"],
            "sim.finalization_delay_events_p50":
                exact["finalization_delay_events_p50"],
            "sim.finalization_delay_events_p99":
                exact["finalization_delay_events_p99"],
        }
        for name in CLOCKS:
            out[f"sim.piggyback_elements_per_msg.{name}"] = (
                exact["payload_elements"][name] / exact["app_messages"]
            )
        if self.stream:
            out["sim.freeze_s"] = stats.median(own["sim.freeze"])
            out["sim.validate_s"] = stats.median(own["sim.validate"])
            out.update(self._oracle_layers(last.heavy["execution"]))
        else:
            out.update(self._scale_layers(int(exact["events"])))
        return out

    def _run_s(self, clocks: Sequence[str], online_oracle: bool = False) -> float:
        """Wall seconds of one ``Simulation.run`` with *clocks*; the reps
        before it have warmed the simulator up."""
        _graph, _cover, sim, workload = self.build(self.seed, clocks, online_oracle)
        return clocked(lambda: sim.run(workload))[0]

    def _oracle_layers(self, execution) -> Dict[str, float]:
        n = execution.n_processes
        m = execution.n_events
        order = execution.delivery_order()
        store = EventStore.from_execution(execution)

        def stream(batch: bool) -> IncrementalHBOracle:
            inc = IncrementalHBOracle(n, batch=batch, registry=MetricsRegistry())
            for ev in order:
                if ev.is_receive:
                    inc.append_receive(ev.eid, execution.send_of(ev).eid)
                elif ev.is_send:
                    inc.append_send(ev.eid)
                else:
                    inc.append_local(ev.eid)
            inc.flush()
            return inc

        def sync() -> IncrementalHBOracle:
            inc = IncrementalHBOracle(n, batch=True, registry=MetricsRegistry())
            inc.sync_store(store)
            return inc

        def freeze() -> float:
            fed = sync()
            return clocked(lambda: fed.freeze(execution))[0]

        walls = medians({
            "with_oracle": lambda: self._run_s(CLOCKS, online_oracle=True),
            "without": lambda: self._run_s(CLOCKS),
            "freeze": freeze,
        })
        out = {
            "sim.oracle_increment_s": walls["with_oracle"] - walls["without"],
            "core.oracle.freeze_s": walls["freeze"],
            "core.oracle.append_per_s.per_op":
                m / best_of(lambda: stream(False)),
            "core.oracle.append_per_s.batched":
                m / best_of(lambda: stream(True)),
            "core.oracle.append_per_s.sync_store": m / best_of(sync),
        }
        frozen = sync().freeze(execution)
        matrix = frozen.past_matrix()
        row_bytes = (
            matrix.nbytes if matrix is not None
            else sum((mask.bit_length() + 7) // 8 for mask in frozen.past_masks())
        )
        out["core.oracle.row_mb"] = row_bytes / 1e6
        return out

    def _scale_layers(self, n_events: int) -> Dict[str, float]:
        walls = medians({
            "bare": lambda: self._run_s(()),
            "inline-cover": lambda: self._run_s(["inline-cover"]),
            "vector": lambda: self._run_s(["vector"]),
        })
        out = {
            "sim.bare_run_s": walls["bare"],
            "sim.clock_increment_s.inline-cover": walls["inline-cover"] - walls["bare"],
            "sim.clock_increment_s.vector": walls["vector"] - walls["bare"],
        }

        def schedule_only() -> None:
            scheduler = EventScheduler()
            noop = lambda: None  # noqa: E731
            for i in range(n_events):
                scheduler.after(float(i % 97), noop)
            scheduler.run()

        out["sim.scheduler_events_per_s"] = n_events / best_of(schedule_only)
        out.update(self._store_layers())
        out.update(_obs_layers(self.sizes["obs_calls"]))
        return out

    def _store_layers(self) -> Dict[str, float]:
        graph, _cover = inputs.sequencer_graph(self.seed)
        ops = inputs.graph_ops(graph, self.seed, self.sizes["store_probe_steps"])
        n = graph.n_vertices
        builders = {
            "object": lambda: ExecutionBuilder(n, graph=graph),
            "columnar": lambda: ColumnarExecutionBuilder(n, graph=graph),
        }
        out = {}
        for flavor, make in builders.items():
            build = lambda: execution_from_ops(graph, ops, builder=make())  # noqa: E731
            out[f"core.store.{flavor}.build_events_per_s"] = (
                len(ops) / best_of(build)
            )
            gc.collect()
            tracemalloc.start()
            execution = build()
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            out[f"core.store.{flavor}.bytes_per_event"] = retained / execution.n_events
            del execution
        return out


def _obs_layers(calls: int) -> Dict[str, float]:
    """Cost of one observation on a handle resolved once, as the runner does."""
    registry = MetricsRegistry()
    histogram = registry.histogram("perf.probe", clock="x")
    counter = registry.counter("perf.probe_total")

    def observe() -> None:
        obs = histogram.observe
        for i in range(calls):
            obs(i & 63)

    def inc() -> None:
        bump = counter.inc
        for _ in range(calls):
            bump()

    return {
        "obs.histogram_observe_ns": best_of(observe) / calls * 1e9,
        "obs.counter_inc_ns": best_of(inc) / calls * 1e9,
    }
