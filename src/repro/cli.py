"""Command-line interface.

``python -m repro <subcommand>`` exposes the library's main entry points
without writing code:

- ``simulate``     — run a seeded workload on a chosen topology with one or
  more clock algorithms attached; prints validation, sizes, finalization
  statistics; optionally archives the execution trace.
- ``validate``     — load a saved execution or a corpus case (an op record,
  see :mod:`repro.core.trace`) and check clock algorithms against ground
  truth on it.
- ``sizes``        — the analytic Theorem 4.2/4.3 size model and crossover.
- ``lower-bound``  — run one of the paper's lower-bound adversaries
  (lemmas 2.1/2.2/2.3/2.4) or the Theorem 4.4 dimension argument.
- ``sync``         — a timed synchronous run with component timestamps.
- ``chaos``        — sweep structured fault scenarios (burst loss,
  duplication, partition+heal, crash-recovery) × clock algorithms with the
  reliable control transport, asserting that finalized timestamps agree
  with happened-before on the surviving execution.
- ``experiments``  — quick headline reproduction of the core claims.
- ``metrics``      — run a workload (or reload ``--trace-out`` files) and
  export the metrics registry as JSON (see :mod:`repro.obs`).
- ``conformance``  — differential fuzz of every clock scheme against both
  causality oracles, replaying a pinned corpus first.
- ``kv-live``      — boot the Figure-4 store as a loopback TCP cluster in
  this process, load it, optionally crash and fault it, and audit it.
- ``serve``        — run one store node in this OS process; nodes find
  each other through a shared JSON address book.

``simulate``, ``validate``, and ``chaos`` accept ``--trace-out PATH`` to
write a structured JSONL trace of the run: a deterministic run header,
span/event records, and metrics-registry snapshots.  Traces carry no
wall-clock state, so reruns — including ``chaos --workers N`` sweeps for any
``N`` — are byte-identical and diff cleanly; render them with
``python tools/metrics_report.py PATH...``.

All output is plain text; exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import signal
import sys
import tempfile
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence

from repro.analysis import (
    compare_sizes,
    crossover_cover_size,
    summarize_latencies,
)
from repro.analysis.reports import format_table
from repro.clocks import ClockAlgorithm, CoverInlineClock, VectorClock
from repro.conformance.registry import CLOCK_NAMES, LIVE_CLOCKS, build_clock
from repro.core import HappenedBeforeOracle
from repro.core.trace import load_execution, save_execution
from repro.clocks.replay import replay
from repro.obs import (
    MetricsRegistry,
    RunTracer,
    deterministic_run_id,
    load_trace,
    registry_from_trace,
    use_registry,
)
from repro.sim import ControlTransport, Simulation, UniformWorkload
from repro.topology import generators
from repro.topology.generators import TOPOLOGY_FAMILIES, build_topology
from repro.topology.vertex_cover import best_cover

if TYPE_CHECKING:  # imported on use: repro.fabric costs ~50 ms to load
    from repro.fabric import FabricInterrupted, ResultStore


# ----------------------------------------------------------------------
def _error(message: str) -> int:
    """Report a usage/environment failure on stderr; exit status 1."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 1


#: exit status for a run cut short by SIGINT/SIGTERM (128 + SIGINT)
INTERRUPTED = 130


@contextlib.contextmanager
def _graceful_signals() -> Iterator[None]:
    """Convert SIGTERM into :class:`KeyboardInterrupt` for the duration.

    Long-running commands wrap their main loop in this so a supervisor's
    SIGTERM unwinds through ``finally`` blocks — flushing trace/metrics
    files — exactly like a ^C, instead of dying mid-write.
    """

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _trace_header(kind: str, **meta) -> Dict[str, object]:
    """Trace-header fields whose run id is a pure function of *meta*."""
    ordered = {k: meta[k] for k in sorted(meta)}
    run_id = deterministic_run_id(kind, tuple(ordered.items()))
    return {"kind": kind, "run_id": run_id, "meta": ordered}


def _make_tracer(kind: str, **meta) -> RunTracer:
    """A tracer whose run id is a pure function of the run coordinates."""
    return RunTracer(**_trace_header(kind, **meta))


def cmd_simulate(args: argparse.Namespace) -> int:
    graph = build_topology(args.topology, args.n, args.seed)
    clocks: Dict[str, ClockAlgorithm] = {
        name: build_clock(name, graph) for name in args.clocks
    }
    registry = MetricsRegistry()
    tracer = _make_tracer(
        "simulate",
        topology=args.topology,
        n=graph.n_vertices,
        events=args.events,
        seed=args.seed,
        clocks=list(args.clocks),
        transport=args.transport,
    )
    with use_registry(registry):
        sim = Simulation(
            graph,
            seed=args.seed,
            clocks=clocks,
            control_transport=ControlTransport(args.transport),
            fifo_app_channels=args.fifo,
            metrics=registry,
            online_oracle=args.online_oracle,
        )
        result = sim.run(
            UniformWorkload(
                events_per_process=args.events, p_local=args.p_local
            )
        )
        ex = result.execution
        print(
            f"topology={args.topology} n={graph.n_vertices} "
            f"events={ex.n_events} messages={result.app_messages} "
            f"duration={result.duration:.2f}"
        )
        cover = best_cover(graph)
        print(f"vertex cover used by 'inline': size {len(cover)} -> "
              f"bound {2 * len(cover) + 2} elements")
        # under --online-oracle this adopts the clocks the stream computed;
        # validate() below asks either oracle for its rows, so both build them
        oracle = result.hb_oracle()
        if result.online_oracle is not None:
            inc = result.online_oracle
            print(
                f"online oracle: {inc.n_events} appends "
                f"({registry.counter('oracle.append_words').value} clock entries)"
            )
        rows = []
        ok = True
        for name, asg in result.assignments.items():
            report = asg.validate(oracle)
            expected = (
                report.characterizes
                if asg.algorithm.characterizes_causality
                else report.is_consistent
            )
            ok &= expected
            lat = summarize_latencies(result, name)
            rows.append(
                [
                    name,
                    report.is_consistent,
                    report.characterizes,
                    asg.max_elements(),
                    round(lat.finalized_fraction, 3),
                    round(lat.mean, 3),
                ]
            )
            tracer.event(
                "clock-validated",
                clock=name,
                consistent=report.is_consistent,
                exact=report.characterizes,
                max_elements=asg.max_elements(),
            )
    print(
        format_table(
            ["clock", "consistent", "exact", "max elements",
             "finalized frac", "mean latency"],
            rows,
        )
    )
    if args.save_trace:
        try:
            save_execution(ex, args.save_trace)
        except OSError as exc:
            return _error(f"cannot write trace {args.save_trace}: {exc}")
        print(f"trace written to {args.save_trace}")
    if args.trace_out:
        tracer.snapshot_metrics("run", registry)
        try:
            tracer.write(args.trace_out)
        except OSError as exc:
            return _error(f"cannot write trace {args.trace_out}: {exc}")
        print(f"structured trace written to {args.trace_out}")
    return 0 if ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        execution = load_execution(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        return _error(f"cannot load trace {args.trace}: {exc}")
    graph = execution.graph
    if graph is None:
        graph = generators.clique(execution.n_processes)
    clocks = [build_clock(name, graph) for name in args.clocks]
    registry = MetricsRegistry()
    tracer = _make_tracer(
        "validate",
        trace=str(args.trace),
        n=execution.n_processes,
        events=execution.n_events,
        clocks=list(args.clocks),
    )
    ok = True
    with use_registry(registry):
        oracle = HappenedBeforeOracle(execution)
        for asg in replay(execution, clocks):
            report = asg.validate(oracle)
            good = (
                report.characterizes
                if asg.algorithm.characterizes_causality
                else report.is_consistent
            )
            ok &= good
            status = "OK" if good else "FAIL"
            print(
                f"{asg.algorithm.name}: {status} "
                f"(consistent={report.is_consistent}, "
                f"exact={report.characterizes}, "
                f"max elements={asg.max_elements()})"
            )
            tracer.event(
                "clock-validated",
                clock=asg.algorithm.name,
                ok=good,
                consistent=report.is_consistent,
                exact=report.characterizes,
                max_elements=asg.max_elements(),
            )
    if args.trace_out:
        tracer.snapshot_metrics("run", registry)
        try:
            tracer.write(args.trace_out)
        except OSError as exc:
            return _error(f"cannot write trace {args.trace_out}: {exc}")
        print(f"structured trace written to {args.trace_out}")
    return 0 if ok else 1


def cmd_sizes(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _error(f"--n must be >= 1, got {args.n}")
    if args.k < 1:
        return _error(f"--k must be >= 1, got {args.k}")
    if not 1 <= args.cover <= args.n:
        return _error(
            f"--cover must be in [1, n={args.n}], got {args.cover} "
            f"(a vertex cover cannot be larger than the graph)"
        )
    row = compare_sizes(args.n, args.k, args.cover)
    print(
        format_table(
            ["n", "K", "|VC|", "inline elements", "vector elements",
             "inline bits", "vector bits", "inline wins"],
            [
                [
                    row.n_processes,
                    row.max_events,
                    row.cover_size,
                    row.inline_elements,
                    row.vector_elements,
                    row.inline_bits,
                    row.vector_bits,
                    row.inline_smaller,
                ]
            ],
        )
    )
    crossover = crossover_cover_size(args.n, args.k)
    print(
        f"largest winning cover size for n={args.n}, K={args.k}: "
        f"{crossover} (paper: n/2 - 1 = {args.n / 2 - 1:.1f})"
    )
    return 0


def cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.lowerbounds import (
        FoldedVectorScheme,
        ProjectedVectorScheme,
        execution_dimension_exceeds_2,
        flooding_adversary,
        offline_two_element_assignment,
        star_adversary_integer,
        star_adversary_real,
        theorem_4_4_witness,
    )

    n = args.n
    if args.lemma == "2.1":
        result = star_adversary_real(
            lambda nn: ProjectedVectorScheme(nn, max(1, nn - 2), seed=0), n
        )
    elif args.lemma == "2.2":
        result = star_adversary_integer(
            lambda nn: FoldedVectorScheme(nn, max(1, nn - 1)), n
        )
    elif args.lemma == "2.3":
        graph = generators.cycle(n)
        result = flooding_adversary(
            lambda nn: FoldedVectorScheme(nn, max(1, nn - 1)), graph
        )
    elif args.lemma == "2.4":
        graph = generators.star(n)
        result = flooding_adversary(
            lambda nn: FoldedVectorScheme(nn, max(1, nn - 2)),
            graph,
            restrict_to_x=True,
        )
    else:  # 4.4
        witness = theorem_4_4_witness()
        exceeds = execution_dimension_exceeds_2(witness)
        assignment = offline_two_element_assignment(witness)
        print(f"Theorem 4.4 witness: {witness.n_events} events on a "
              f"4-process star")
        print(f"order dimension > 2: {exceeds}")
        print(f"2-element offline assignment exists: {assignment is not None}")
        return 0 if exceeds and assignment is None else 1

    print(
        f"Lemma {args.lemma} adversary (n={n}, scheme length "
        f"{result.vector_length}): refuted={result.refuted}"
    )
    if result.violation:
        print(f"counterexample: {result.violation.describe()}")
    return 0 if result.refuted else 1


def cmd_sync(args: argparse.Namespace) -> int:
    """Run a timed synchronous computation with component timestamps."""
    from repro.sync import (
        ComponentSyncClock,
        best_decomposition,
        simulate_sync,
        timestamp_mismatches,
    )

    graph = build_topology(args.topology, args.n, args.seed)
    dec = best_decomposition(graph)
    res = simulate_sync(
        graph,
        actions_per_process=args.events,
        seed=args.seed,
        decomposition=dec,
    )
    clock = ComponentSyncClock(dec)
    clock.replay(res.execution, res.joints)
    clock.finalize_at_termination()
    mismatches = len(timestamp_mismatches(clock, res.execution, res.joints))
    lats = sorted(res.finalization_latencies().values())
    mean_lat = sum(lats) / len(lats) if lats else 0.0
    print(
        f"synchronous run: {len(res.joints)} events, "
        f"d={dec.d} component(s), duration={res.duration:.1f}"
    )
    print(f"timestamp elements: max {clock.max_elements()} "
          f"(bound 2d+4 = {2 * dec.d + 4}; vector clock would need "
          f"{graph.n_vertices})")
    print(f"causality mismatches vs oracle: {mismatches}")
    print(f"finalized during run: "
          f"{res.fraction_finalized_during_run():.1%}, "
          f"mean latency {mean_lat:.2f}")
    return 0 if mismatches == 0 else 1


@contextlib.contextmanager
def _sweep_store(fabric: Optional[str]) -> Iterator[ResultStore]:
    """The ``--fabric DIR`` store, or a temporary one removed on exit."""
    from repro.fabric import ResultStore

    if fabric is not None:
        yield ResultStore(fabric)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            yield ResultStore(tmp)


def _sweep_interrupted(args: argparse.Namespace, what: str,
                       exc: FabricInterrupted) -> int:
    hint = (
        f"; rerun with --fabric {args.fabric} --resume"
        if args.fabric is not None else ""
    )
    print(
        f"repro: error: {what} interrupted ({exc.done} cell(s) completed "
        f"this run, {exc.remaining} remaining{hint})",
        file=sys.stderr,
    )
    return INTERRUPTED


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-scenario sweep with invariant checking (experiment E16).

    One fabric cell per scenario.  The cells run in this process or in
    ``--workers N`` local processes; the compacted
    trace and the merged report are byte-identical for every placement
    and interruption history, and equal to :func:`repro.faults.run_chaos`
    on the same coordinates.
    """
    from repro.fabric import CellFailed, FabricInterrupted, cell_key, run_fabric
    from repro.fabric.drivers import chaos_cell_specs, merge_chaos_results
    from repro.faults import ROW_HEADER
    from repro.faults.chaos import split_fifo_clocks
    from repro.sim.network import RetryPolicy

    if args.resume and args.fabric is None:
        return _error("--resume requires --fabric DIR")
    try:
        graph = build_topology(args.topology, args.n, args.seed)
        retry = RetryPolicy(
            timeout=args.retry_timeout, max_retries=args.max_retries
        )
        specs = chaos_cell_specs(
            args.topology,
            graph.n_vertices,
            args.events,
            args.seed,
            clocks=list(args.clocks),
            quick=bool(args.quick),
            reliable=not args.unreliable,
            retry_timeout=retry.timeout,
            retry_max=retry.max_retries,
        )
    except ValueError as exc:
        return _error(str(exc))
    keys = [cell_key(spec) for spec in specs]
    _usable, skipped = split_fifo_clocks(
        {name: partial(build_clock, name, graph) for name in args.clocks}
    )
    skipped.sort()
    with _sweep_store(args.fabric) as store:
        interrupted: Optional[FabricInterrupted] = None
        try:
            with _graceful_signals():
                fabric_report = run_fabric(
                    specs,
                    store,
                    workers=args.workers,
                    resume=args.resume,
                )
        except FabricInterrupted as exc:
            interrupted = exc
        except (CellFailed, ValueError, OSError) as exc:
            return _error(str(exc))

        report = None
        if interrupted is None:
            report = merge_chaos_results(
                fabric_report.iter_results(), skipped
            )
        if args.trace_out:
            # run id and meta exclude every placement flag: the trace must
            # be byte-identical wherever the cells ran
            header = _trace_header(
                "chaos",
                topology=args.topology,
                n=graph.n_vertices,
                events=args.events,
                seed=args.seed,
                clocks=list(args.clocks),
                quick=bool(args.quick),
                reliable=not args.unreliable,
            )
            tracer = RunTracer(**header)
            if skipped:
                tracer.event("skipped-clocks", clocks=skipped)
            # input order, whatever order the cells completed in; an
            # interrupted sweep keeps the cells it completed
            for key in keys:
                if interrupted is None or store.has(key):
                    tracer.extend(store.get(key)["trace"])
            if report is not None:
                tracer.event(
                    "sweep-summary",
                    cells=len(report.cells),
                    failures=len(report.failures()),
                    ok=report.ok,
                )
            try:
                tracer.write(args.trace_out)
            except OSError as exc:
                return _error(f"cannot write trace {args.trace_out}: {exc}")
        if interrupted is not None:
            if args.trace_out:
                print(f"partial trace written to {args.trace_out}",
                      file=sys.stderr)
            return _sweep_interrupted(args, "chaos sweep", interrupted)

        transport = (
            "fire-and-forget"
            if args.unreliable
            else f"reliable (timeout={retry.timeout}, backoff={retry.backoff}, "
            f"max_retries={retry.max_retries})"
        )
        print(
            f"chaos sweep: topology={args.topology} n={graph.n_vertices} "
            f"events={args.events} seed={args.seed} "
            f"control transport: {transport}"
        )
        if skipped:
            print(f"skipped FIFO-requiring clocks: {', '.join(skipped)}")
        print(format_table(ROW_HEADER, report.rows()))
        for cell in report.failures():
            kind = (
                "causality" if not cell.causality_ok else "crash checkpoint"
            )
            print(f"FAIL: {cell.scenario} × {cell.clock} ({kind} invariant)")
        if report.ok:
            print("all scenario × clock invariants hold")
        if args.trace_out:
            print(f"structured trace written to {args.trace_out}")
        if args.fabric is not None:
            print(f"fabric: store {store.root} holds {len(store)} cell(s), "
                  f"digest {store.digest(keys)[:16]}")
    return 0 if report.ok else 1


def _build_live_faults(loss: float, duplicate: float):
    """Fault model for the live runtime from the CLI loss/dup knobs.

    ``--loss r`` becomes a Gilbert–Elliott channel whose stationary mean
    loss rate is exactly *r* (short bursts: enter with probability ``r``,
    exit with ``1 - r``); ``--duplicate r`` duplicates that fraction of
    frames.  Returns ``None`` when both are zero.
    """
    from repro.faults.models import (
        CompositeFault,
        DuplicationFault,
        GilbertElliottLoss,
    )

    models = []
    if loss > 0:
        models.append(
            GilbertElliottLoss(p_enter_burst=loss, p_exit_burst=1.0 - loss)
        )
    if duplicate > 0:
        models.append(DuplicationFault(rate=duplicate))
    if not models:
        return None
    return models[0] if len(models) == 1 else CompositeFault(models)


def cmd_kv_live(args: argparse.Namespace) -> int:
    """Boot a loopback cluster, load it, crash it, audit it.

    The live counterpart of the Figure-4 store experiment: real sockets,
    real wall-clock latencies, optional seeded loss/duplication and a
    scripted mid-run sequencer crash-and-restart.  Exit status 0 iff every
    session completed, the causal-read audit passed, no acknowledged write
    was lost, and crash checkpoints were permanent.
    """
    import asyncio
    import json

    from repro.applications.causal_kv import StoreConfig
    from repro.net import CrashPlan, TransportPolicy, run_live_store

    try:
        config = StoreConfig(
            n_sequencers=args.sequencers,
            n_servers=args.servers,
            n_clients=args.clients,
            n_keys=args.keys,
            ops_per_client=args.ops,
            write_fraction=args.write_fraction,
            seed=args.seed,
        )
        fault_model = _build_live_faults(args.loss, args.duplicate)
        policy = TransportPolicy(
            request_timeout=args.timeout,
            max_retries=args.max_retries,
            seed=args.seed,
        )
    except ValueError as exc:
        return _error(str(exc))
    crash_plan = None
    if args.kill_sequencer is not None:
        if not 0 <= args.kill_sequencer < args.sequencers:
            return _error(
                f"--kill-sequencer must name a sequencer index in "
                f"[0, {args.sequencers}), got {args.kill_sequencer}"
            )
        total = args.clients * args.ops
        after = args.kill_after_ops
        if after is None:
            after = max(1, total // 4)
        crash_plan = CrashPlan(
            pid=args.kill_sequencer, after_ops=after, downtime=args.downtime
        )
    clock_name = None if args.clock == "none" else args.clock
    registry = MetricsRegistry()
    tracer = _make_tracer(
        "kv-live",
        sequencers=args.sequencers,
        servers=args.servers,
        clients=args.clients,
        ops=args.ops,
        seed=args.seed,
        clock=args.clock,
        loss=args.loss,
        duplicate=args.duplicate,
        kill=args.kill_sequencer,
    )

    async def _run():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        runner = asyncio.ensure_future(
            run_live_store(
                config,
                clock_name=clock_name,
                fault_model=fault_model,
                crash_plan=crash_plan,
                policy=policy,
                registry=registry,
                compare_sim=args.compare_sim,
                stopping=stop.is_set,
            )
        )
        waiter = asyncio.ensure_future(stop.wait())
        done, _pending = await asyncio.wait(
            {runner, waiter}, return_when=asyncio.FIRST_COMPLETED
        )
        if runner in done:
            waiter.cancel()
            return runner.result(), False
        runner.cancel()
        await asyncio.gather(runner, return_exceptions=True)
        return None, True

    try:
        report, interrupted = asyncio.run(_run())
    except ValueError as exc:
        return _error(str(exc))

    def _flush_trace() -> Optional[int]:
        if not args.trace_out:
            return None
        tracer.snapshot_metrics("run", registry)
        try:
            tracer.write(args.trace_out)
        except OSError as exc:
            return _error(f"cannot write trace {args.trace_out}: {exc}")
        print(f"structured trace written to {args.trace_out}")
        return None

    if interrupted:
        tracer.event("interrupted")
        rc = _flush_trace()
        if rc is not None:
            return rc
        print("repro: error: kv-live interrupted", file=sys.stderr)
        return INTERRUPTED
    tracer.event("live-report", **{
        k: v for k, v in report.as_dict().items()
        if k not in ("latency_cdf", "counters", "sim_prediction")
    })
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    rc = _flush_trace()
    if rc is not None:
        return rc
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one store node in this OS process (clockless).

    Peers are found through a shared JSON address book; each node registers
    its ephemeral port there on startup.  Sequencer and server nodes serve
    until SIGINT/SIGTERM (a clean stop exits 0); a client node runs its
    closed-loop session to completion and exits.  The in-process clock seam
    needs shared algorithm state, so multi-process deployments run without
    a timestamping scheme attached — use ``kv-live`` to measure clocks.
    """
    import asyncio

    from repro.applications.causal_kv import StoreConfig
    from repro.net import (
        ClusterSpec,
        FileAddressBook,
        TransportPolicy,
        make_node,
    )

    try:
        config = StoreConfig(
            n_sequencers=args.sequencers,
            n_servers=args.servers,
            n_clients=args.clients,
            n_keys=args.keys,
            ops_per_client=args.ops,
            write_fraction=args.write_fraction,
            seed=args.seed,
        )
        spec = ClusterSpec(config)
        policy = TransportPolicy(
            request_timeout=args.timeout, seed=args.seed
        )
    except ValueError as exc:
        return _error(str(exc))
    if not 0 <= args.pid < spec.n_processes:
        return _error(
            f"--pid must be in [0, {spec.n_processes}) for this cluster, "
            f"got {args.pid}"
        )

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        book = FileAddressBook(args.address_book)
        node = make_node(args.pid, spec, book, policy)
        host, port = await node.start()
        print(
            f"repro serve: {node.role} p{args.pid} listening on "
            f"{host}:{port} (book: {args.address_book})",
            flush=True,
        )
        try:
            if node.role == "client":
                session = asyncio.ensure_future(node.run_session())
                waiter = asyncio.ensure_future(stop.wait())
                done, _pending = await asyncio.wait(
                    {session, waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                if session in done:
                    waiter.cancel()
                    session.result()
                    ops = len(node.operations)
                    lat = sorted(node.latencies_ms)
                    p50 = lat[len(lat) // 2] if lat else 0.0
                    print(
                        f"repro serve: client p{args.pid} completed "
                        f"{ops} ops (p50 {p50:.1f} ms)"
                    )
                    return 0
                session.cancel()
                await asyncio.gather(session, return_exceptions=True)
                print("repro: error: client session interrupted",
                      file=sys.stderr)
                return INTERRUPTED
            await stop.wait()
            print(f"repro serve: p{args.pid} shutting down")
            return 0
        finally:
            await node.stop()

    return asyncio.run(_run())


def cmd_metrics(args: argparse.Namespace) -> int:
    """Export a metrics registry as JSON.

    Two modes: ``--from-trace`` folds the metrics snapshots of one or more
    structured trace files (``--trace-out`` output) into a single registry;
    otherwise a seeded simulation is run (same knobs as ``simulate``) and
    its registry — simulator instrumentation plus validation counters — is
    exported.
    """
    import json

    registry = MetricsRegistry()
    if args.from_trace:
        for path in args.from_trace:
            try:
                registry.merge(registry_from_trace(load_trace(path)))
            except (OSError, ValueError, KeyError) as exc:
                return _error(f"cannot load trace {path}: {exc}")
    else:
        graph = build_topology(args.topology, args.n, args.seed)
        clocks = {name: build_clock(name, graph) for name in args.clocks}
        with use_registry(registry):
            sim = Simulation(
                graph, seed=args.seed, clocks=clocks, metrics=registry
            )
            result = sim.run(
                UniformWorkload(events_per_process=args.events)
            )
            oracle = HappenedBeforeOracle(result.execution)
            for asg in result.assignments.values():
                asg.validate(oracle)
    payload = registry.to_json(indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            return _error(f"cannot write metrics {args.output}: {exc}")
        print(f"metrics written to {args.output}")
    else:
        print(payload)
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    """Differential conformance fuzzing across all clock schemes/oracles.

    Runs the seeded fuzz campaign, then optionally replays a pinned-case
    corpus (loaded, and refused if malformed, before the campaign starts).
    Exit status 0 iff no corpus case and no fuzz trial surfaced a
    mismatch.  ``--report`` writes every mismatch (plus a
    summary record) as a structured JSONL trace via :mod:`repro.obs`.
    """
    from repro.conformance import (
        case_from_mismatch,
        load_corpus,
        replay_case,
        save_case,
    )
    from repro.fabric import CellFailed, FabricInterrupted, run_fabric
    from repro.fabric.drivers import (
        conformance_chunk_specs,
        merge_conformance_results,
    )

    if args.trials < 0:
        return _error(f"--trials must be >= 0, got {args.trials}")
    if args.steps < 0:
        return _error(f"--steps must be >= 0, got {args.steps}")
    if args.chunk_size < 1:
        return _error(f"--chunk-size must be >= 1, got {args.chunk_size}")
    if args.backend == "numpy":
        from repro.core.backend import numpy_available

        if not numpy_available():
            return _error(
                f"--backend {args.backend} requires numpy>=2.0 "
                "(pip install numpy, or the [fast] extra)"
            )
    # the campaign is sharded into trial-range cells; absolute trial
    # indices seed each trial, so the merged report — and the JSONL
    # --report — is the same for every chunking and placement, and equal
    # to repro.conformance.fuzz on the same coordinates
    if args.resume and args.fabric is None:
        return _error("--resume requires --fabric DIR")
    try:
        specs = conformance_chunk_specs(
            args.trials,
            args.seed,
            list(args.topology),
            args.steps,
            args.backend,
            shrink=not args.no_shrink,
            chunk_size=args.chunk_size,
        )
    except ValueError as exc:
        return _error(str(exc))
    tracer = _make_tracer(
        "conformance",
        trials=args.trials,
        seed=args.seed,
        topologies=list(args.topology),
        steps=args.steps,
        backend=args.backend,
    )
    cases = None
    if args.corpus:
        # refused before the sweep, replayed after it: the replay's backend
        # differential imports numpy, which a coordinator about to fork
        # workers must not hold (the same order for every placement)
        try:
            cases = load_corpus(args.corpus)
        except (OSError, ValueError, KeyError) as exc:
            return _error(f"cannot load corpus {args.corpus}: {exc}")
    with _sweep_store(args.fabric) as store:
        try:
            with _graceful_signals():
                fabric_report = run_fabric(
                    specs,
                    store,
                    workers=args.workers,
                    resume=args.resume,
                )
        except FabricInterrupted as exc:
            return _sweep_interrupted(args, "conformance campaign", exc)
        except (CellFailed, ValueError, OSError) as exc:
            return _error(str(exc))
        report = merge_conformance_results(fabric_report.iter_results())
    corpus_mismatches = 0
    if cases is not None:
        for case in cases:
            for mm in replay_case(case):
                corpus_mismatches += 1
                tracer.event("corpus-mismatch", case=case.name,
                             **mm.to_record())
                print(f"corpus FAIL {case.name} [{mm.invariant}] "
                      f"{mm.scheme}: {mm.detail}", file=sys.stderr)
        print(f"corpus: {len(cases)} pinned case(s), "
              f"{corpus_mismatches} mismatch(es)")
    for mm in report.mismatches:
        tracer.event("mismatch", **mm.to_record())
    tracer.event(
        "summary",
        trials=report.trials,
        events=report.events_checked,
        checks=dict(sorted(report.checks.items())),
        mismatches=len(report.mismatches),
    )
    print(
        f"conformance: {report.trials} trial(s), seed {args.seed}, "
        f"topologies {'/'.join(args.topology)}, "
        f"{report.events_checked} events checked"
    )
    print(format_table(
        ["invariant", "checks"],
        [[inv, count] for inv, count in sorted(report.checks.items())],
    ))
    for mm in report.mismatches:
        print(f"MISMATCH [{mm.invariant}] {mm.scheme}: {mm.detail} "
              f"(ops={len(mm.ops)}, context={dict(mm.context)})",
              file=sys.stderr)
    if args.save_failing and report.mismatches:
        for i, mm in enumerate(report.mismatches):
            case = case_from_mismatch(
                f"fuzz-{args.seed}-{mm.context.get('trial', i)}-{i}", mm
            )
            path = save_case(case, args.save_failing)
            print(f"shrunken case written to {path}", file=sys.stderr)
    if args.report:
        try:
            tracer.write(args.report)
        except OSError as exc:
            return _error(f"cannot write report {args.report}: {exc}")
        print(f"mismatch report written to {args.report}")
    total = corpus_mismatches + len(report.mismatches)
    print("conformance: OK" if total == 0
          else f"conformance: {total} mismatch(es)")
    return 0 if total == 0 else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    """Quick headline reproduction: one table per core claim."""
    from repro.core.random_executions import random_execution
    from repro.lowerbounds import (
        FoldedVectorScheme,
        execution_dimension_exceeds_2,
        star_adversary_integer,
        theorem_4_4_witness,
    )

    ok = True

    # --- sizes (Theorem 4.2 / Section 3)
    rows = []
    for n in (8, 16, 32):
        graph = generators.star(n)
        ex = random_execution(
            graph, random.Random(1), steps=4 * n, deliver_all=True
        )
        inline, vector = replay(
            ex, [CoverInlineClock(graph, (0,)), VectorClock(n)]
        )
        rows.append([n, inline.max_elements(), vector.max_elements(),
                     inline.validate().characterizes])
        ok &= inline.max_elements() == 4 and vector.max_elements() == n
    print("Theorem 4.2 / Section 3 — star timestamps (constant 4 vs n):")
    print(format_table(["n", "inline elements", "vector elements", "exact"],
                       rows))

    # --- Lemma 2.2 (online lower bound)
    result = star_adversary_integer(
        lambda nn: FoldedVectorScheme(nn, nn - 1), args.n
    )
    print(f"\nLemma 2.2 — integer online vectors of length n-1 refuted: "
          f"{result.refuted}")
    ok &= result.refuted

    # --- Theorem 4.4 (offline lower bound)
    exceeds = execution_dimension_exceeds_2(theorem_4_4_witness())
    print(f"Theorem 4.4 — witness execution has dimension > 2: {exceeds}")
    ok &= exceeds

    print("\n(full suite: pytest benchmarks/ --benchmark-only -s;"
          " details in EXPERIMENTS.md)")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def _add_workload_args(p: argparse.ArgumentParser, events: int) -> None:
    """The coordinates of a seeded run: family, size, length, seed."""
    p.add_argument("--topology", default="star",
                   choices=list(TOPOLOGY_FAMILIES))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--events", type=int, default=events)
    p.add_argument("--seed", type=int, default=0)


def _add_clocks_arg(p: argparse.ArgumentParser, *default: str) -> None:
    p.add_argument("--clocks", nargs="+", default=list(default),
                   choices=CLOCK_NAMES, metavar="CLOCK")


def _add_fabric_args(p: argparse.ArgumentParser) -> None:
    """The work-queue fabric flags shared by sweep commands."""
    g = p.add_argument_group("experiment fabric")
    g.add_argument("--fabric", metavar="DIR", default=None,
                   help="keep per-cell results in DIR, so the sweep can be "
                   "resumed and audited (default: a temporary store removed "
                   "on exit; output is byte-identical either way)")
    g.add_argument("--resume", action="store_true",
                   help="reuse cells already completed in the --fabric "
                   "store instead of refusing to overwrite them")
    g.add_argument("--workers", type=int, default=1,
                   help="local worker processes (1 = run the cells in this "
                   "process)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Effectiveness of Delaying Timestamp "
            "Computation' (PODC 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a workload with clocks attached")
    _add_workload_args(p, events=20)
    p.add_argument("--p-local", type=float, default=0.3)
    _add_clocks_arg(p, "inline", "vector")
    p.add_argument("--transport", default="eager",
                   choices=["eager", "piggyback"])
    p.add_argument("--fifo", action="store_true",
                   help="FIFO application channels")
    p.add_argument("--save-trace", metavar="PATH", default=None,
                   help="write the execution as its op record (JSON)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a structured JSONL run trace (repro.obs)")
    p.add_argument("--online-oracle", action="store_true",
                   help="stream a causality oracle during the run (O(Δ) "
                   "appends) for mid-run queries; validation still does "
                   "the batch build and reuses the streamed vector clocks")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate", help="validate clocks on a saved trace")
    p.add_argument("trace")
    _add_clocks_arg(p, "inline", "vector")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a structured JSONL run trace (repro.obs)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "metrics",
        help="export a metrics registry as JSON (run a workload or "
        "reload --trace-out files)",
    )
    p.add_argument("--from-trace", nargs="+", metavar="PATH", default=None,
                   help="merge the metrics snapshots of these JSONL traces "
                   "instead of running a simulation")
    _add_workload_args(p, events=20)
    _add_clocks_arg(p, "inline", "vector")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the JSON here instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("sizes", help="analytic size model (Thms 4.2/4.3)")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--cover", type=int, default=1)
    p.set_defaults(fn=cmd_sizes)

    p = sub.add_parser("lower-bound", help="run a lower-bound adversary")
    p.add_argument("lemma", choices=["2.1", "2.2", "2.3", "2.4", "4.4"])
    p.add_argument("--n", type=int, default=8)
    p.set_defaults(fn=cmd_lower_bound)

    p = sub.add_parser(
        "experiments", help="quick headline reproduction of the core claims"
    )
    p.add_argument("--n", type=int, default=6)
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser(
        "conformance",
        help="differential fuzz: all clock schemes vs both causality "
        "oracles on the same random executions",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topology", nargs="+",
                   default=["star", "tree", "random"],
                   choices=["star", "tree", "random"])
    p.add_argument("--steps", type=int, default=40,
                   help="max generation steps per trial")
    p.add_argument("--corpus", metavar="DIR", default=None,
                   help="replay this pinned-case directory before fuzzing")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write mismatches as a structured JSONL trace")
    p.add_argument("--save-failing", metavar="DIR", default=None,
                   help="write shrunken failing executions as corpus JSON")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw failing executions without minimizing")
    p.add_argument("--backend", default="auto",
                   choices=["auto", "pure", "numpy"],
                   help="kernel backend: pure/numpy pin every oracle; "
                   "auto also cross-checks the numpy array kernel against "
                   "the pure packed-int kernel")
    p.add_argument("--chunk-size", type=int, default=25,
                   help="trials per sweep cell")
    _add_fabric_args(p)
    p.set_defaults(fn=cmd_conformance)

    p = sub.add_parser(
        "chaos", help="fault-scenario sweep with invariant checks (E16)"
    )
    _add_workload_args(p, events=15)
    _add_clocks_arg(p, "inline", "vector", "lamport")
    p.add_argument("--quick", action="store_true",
                   help="run the reduced 3-scenario smoke subset")
    p.add_argument("--unreliable", action="store_true",
                   help="fire-and-forget control messages (no retransmission)")
    p.add_argument("--retry-timeout", type=float, default=4.0,
                   help="retransmission timeout for the reliable transport")
    p.add_argument("--max-retries", type=int, default=4)
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a structured JSONL sweep trace "
                   "(byte-identical for any --workers)")
    _add_fabric_args(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "kv-live",
        help="boot a live loopback KV cluster, load it, crash it, audit it",
    )
    p.add_argument("--sequencers", type=int, default=2)
    p.add_argument("--servers", type=int, default=3)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--keys", type=int, default=4)
    p.add_argument("--ops", type=int, default=10,
                   help="operations per client session")
    p.add_argument("--write-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clock", default="inline",
                   choices=LIVE_CLOCKS + ("none",),
                   help="timestamping scheme hosted on the clock seam")
    p.add_argument("--loss", type=float, default=0.0,
                   help="mean Gilbert-Elliott frame loss rate, e.g. 0.05")
    p.add_argument("--duplicate", type=float, default=0.0,
                   help="frame duplication probability")
    p.add_argument("--kill-sequencer", type=int, default=None,
                   metavar="IDX",
                   help="crash this sequencer mid-run and restart it")
    p.add_argument("--kill-after-ops", type=int, default=None,
                   help="operations to complete before the crash "
                   "(default: a quarter of the total)")
    p.add_argument("--downtime", type=float, default=0.5,
                   help="seconds the killed sequencer stays down")
    p.add_argument("--timeout", type=float, default=0.25,
                   help="per-attempt request timeout in seconds")
    p.add_argument("--max-retries", type=int, default=5)
    p.add_argument("--compare-sim", action="store_true",
                   help="run the same roles on virtual time with the same "
                   "config and report that run alongside")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a structured JSONL run trace (repro.obs)")
    p.set_defaults(fn=cmd_kv_live)

    p = sub.add_parser(
        "serve",
        help="run one live store node in this process (shared address book)",
    )
    p.add_argument("--pid", type=int, required=True,
                   help="process id of this node in the cluster layout")
    p.add_argument("--address-book", required=True, metavar="PATH",
                   help="shared JSON file mapping process ids to addresses")
    p.add_argument("--sequencers", type=int, default=2)
    p.add_argument("--servers", type=int, default=3)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--keys", type=int, default=4)
    p.add_argument("--ops", type=int, default=10)
    p.add_argument("--write-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=0.5,
                   help="per-attempt request timeout in seconds")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "sync", help="timed synchronous run with component timestamps"
    )
    _add_workload_args(p, events=15)
    p.set_defaults(fn=cmd_sync)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
