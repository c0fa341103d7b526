"""Every exported name, and every public method, has a user outside the tests.

A subpackage's ``_EXPORTS`` table (``src/repro/*/__init__.py``) is its public
surface.  A name earns its place there by a user that is not a test: another
module of ``src/`` (not its own, not an ``__init__``), a benchmark, an
example, the ``perf/`` harness or a tool.  A name that only tests use is
either dead (delete it, with the tests that exercise only it) or private to
its module (drop it from the table and keep the code).  ``ALLOWED`` lists the
exceptions, each with its reason: a result type, exception or constant that
a public function hands its caller, or a function the tests use as an
independent reference for other code.

A public method or property of a class in ``src/`` (a name without a
leading underscore) earns its place the same way, except that a use in its
own module counts: a method its class calls is used.  ``ALLOWED_METHODS``
lists the exceptions: the state of a value a public function returns, an
instrument a budget or a test reads, a callback the standard library makes.

A parameter with a default, and a dataclass ``init`` field with one, is an
option: it earns its place by a call outside the tests that sets it, by
keyword, by position, through ``functools.partial`` or through
``super().__init__``.  A call that forwards ``*args`` or ``**kwargs`` sets
every parameter it could reach.  A dataclass field is also set by a store to
an attribute of its name, or a method call on one (a result record's counter
or list).  Calls are matched by the callee's last name, as words are, and a
constructor's parameters by the class name and the names of subclasses that
inherit its ``__init__``.  An option that nothing sets becomes a constant;
``ALLOWED_PARAMS`` lists the exceptions: a value the ``perf/`` harness
passes, a deployment setting, a test seam that substitutes a fake, a
coordinate of a reference the tests compare against, an interface the
standard library calls, a decision DESIGN.md records, or a value a golden
file was made with.

Each file is read once into the set of words its code uses: names,
attributes, imported names and strings that are one identifier, so a comment,
docstring or message that mentions a name is not a user.  A name
costs one set lookup per file.  The word set cannot see a name built at run
time, and the call matching cannot tell two callees of one name apart, so a
name or option it flags is checked by hand before it goes.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USER_DIRS = ("src", "benchmarks", "examples", "perf", "tools")

#: ``repro.<package>.<name>`` → why it stays exported with no non-test user
ALLOWED = {
    "repro.analysis.LatencySummary": "summarize_latencies' result",
    "repro.analysis.ReliabilitySummary": "summarize_reliability's result",
    "repro.analysis.SizeComparison": "compare_sizes' result",
    "repro.applications.ConflictReport": "conflict_resolution_status' result",
    "repro.applications.DetectionLag": "detection_lag's result",
    "repro.applications.RecoveryComparison": "recovery_line_lag's result",
    "repro.applications.Snapshot": "AnalysisSession.snapshot's result",
    "repro.applications.StoreRunResult": "run_store's result",
    "repro.applications.TrafficReport": "the type of StoreRunResult.traffic",
    "repro.baselines.ClusterTimestamp": "ClusterClock's timestamp",
    "repro.baselines.EncodedTimestamp": "EncodedClock's timestamp",
    "repro.baselines.HLCTimestamp": "HybridLogicalClock's timestamp",
    "repro.baselines.PlausibleTimestamp": "PlausibleClock's timestamp",
    "repro.clocks.CoverTimestamp": "CoverInlineClock's timestamp",
    "repro.clocks.LamportTimestamp": "LamportClock's timestamp",
    "repro.clocks.StarTimestamp": "StarInlineClock's timestamp",
    "repro.clocks.ValidationReport": "TimestampAssignment.validate's result",
    "repro.conformance.CASE_SCHEMA": "the schema tag save_case writes and load_corpus checks",
    "repro.conformance.CorpusCase": "the element type of load_corpus' result",
    "repro.conformance.INVARIANTS": "the values of Mismatch.invariant",
    "repro.conformance.fuzz": "the serial campaign the fabric path is compared against",
    "repro.core.ColumnarExecution": "ColumnarExecutionBuilder.freeze's result",
    "repro.core.cut_from_events": "reference downward closure for the oracles' past rows",
    "repro.core.meet": "reference clip of a finalized cut to a mid-run oracle",
    "repro.fabric.FabricReport": "run_fabric's result",
    "repro.fabric.StoreError": "ResultStore's exception",
    "repro.fabric.WORK_KINDS": "the registry work_kind fills and execute_cell reads",
    "repro.faults.DROP": "the MessageFate of a lost message",
    "repro.faults.MessageFate": "what a FaultModel decides for one message",
    "repro.faults.NEVER": "the recovery time of a crash-stop outage",
    "repro.lowerbounds.CrownWitness": "charron_bost_execution's witness",
    "repro.lowerbounds.SearchOutcome": "find_high_dimension_execution's result",
    "repro.lowerbounds.ViolationKind": "the kind field of Violation",
    "repro.lowerbounds.find_crown": "independent crown search the Charron-Bost tests use",
    "repro.lowerbounds.verify_realizer": "independent check of greedy_realizer's extensions",
    "repro.net.ConnectionClosed": "the transport's exception for a closed connection",
    "repro.net.CrashSnapshot": "Supervisor.kill's result",
    "repro.net.LiveReport": "run_live_store's result",
    "repro.obs.DEFAULT_BUCKETS": "Histogram's default bucket edges",
    "repro.obs.Gauge": "gauge()'s result",
    "repro.obs.METRICS_SCHEMA": "the schema tag of MetricsRegistry.as_dict",
    "repro.obs.TRACE_SCHEMA": "the schema tag of a RunTracer header",
    "repro.sim.AlgorithmStats": "the values of SimulationResult.stats",
    "repro.sim.FloodTiming": "slow_victim_flood's result",
    "repro.sync.Component": "the element type of Decomposition.components",
    "repro.sync.ComponentTimestamp": "ComponentSyncClock's timestamp",
    "repro.sync.SyncSimResult": "simulate_sync's result",
}


#: ``repro.<module>.<Class>.<name>`` → why it stays with no non-test user
ALLOWED_METHODS = {
    "repro.baselines.cluster.ClusterClock.cluster_of": (
        "the partition the clock was built with, which its tests check"
    ),
    "repro.clocks.vector_sk.SKVectorClock.mean_diff_entries": (
        "instrument: the differential payload's measured width"
    ),
    "repro.core.execution.Execution.undelivered_messages": (
        "independent reference for the messages a run lost"
    ),
    "repro.fabric.queue.WorkQueue.pending_count": "instrument: the queue's lease state",
    "repro.fabric.queue.WorkQueue.worker_of": "instrument: the queue's lease state",
    "repro.lowerbounds.offline_star.SearchOutcome.success": (
        "find_high_dimension_execution's verdict"
    ),
    "repro.net.transport.FrameStream.pause_writing": "asyncio.Protocol callback",
    "repro.net.virtual._Pipe.get_extra_info": "asyncio.Transport method",
    "repro.net.virtual._Timeline.get_map": "selectors.BaseSelector method",
    "repro.net.virtual._Timeline.select": "selectors.BaseSelector method",
    "repro.net.virtual._Timeline.unregister": "selectors.BaseSelector method",
    "repro.sim.scheduler.EventScheduler.compactions": "instrument: the simulator budget reads it",
    "repro.sim.scheduler.EventScheduler.heap_size": "instrument: the simulator budget reads it",
    "repro.sim.scheduler.EventScheduler.steps_executed": (
        "instrument: the cancellation tests count what ran"
    ),
    "repro.sim.scheduler.TimerHandle.cancelled": "the state of the handle timer() returns",
}


#: ``repro.<module>.[<Class>.][<function>.]<parameter>`` → why it stays an
#: option with no non-test setter (a constructor's parameters and a
#: dataclass's fields are named without ``__init__``)
ALLOWED_PARAMS = {
    "repro.applications.global_predicate.definitely.within": (
        "kept for now: the tests restrict the lattice to a finalized cut with it"
    ),
    "repro.applications.global_predicate.possibly.within": (
        "kept for now: the tests restrict the lattice to a finalized cut with it"
    ),
    "repro.applications.replay.replay_schedule.events": (
        "kept for now: test_subset_replay schedules a subset with it"
    ),
    "repro.baselines.cluster.ClusterClock.clusters": (
        "kept for now: the cluster tests build uneven and invalid partitions"
    ),
    "repro.clocks.replay.TimestampAssignment.validate.events": (
        "compared with the pairwise reference on the same subset"
    ),
    "repro.clocks.replay.TimestampAssignment.validate_pairwise.events": (
        "a coordinate of the pairwise reference validate is compared against"
    ),
    "repro.clocks.replay.replay_one.finalize": (
        "test seam: stops before the termination flush, so a test reads the "
        "timestamps still unfinalized"
    ),
    "repro.conformance.fuzzer.fuzz.backend": "a coordinate of the serial reference campaign",
    "repro.conformance.fuzzer.fuzz.max_steps": "a coordinate of the serial reference campaign",
    "repro.conformance.fuzzer.fuzz.seed": "a coordinate of the serial reference campaign",
    "repro.conformance.fuzzer.fuzz.topologies": "a coordinate of the serial reference campaign",
    "repro.fabric.coordinator.run_fabric.executor": "test seam: substitutes a fake cell executor",
    "repro.fabric.coordinator.run_fabric.lease_timeout": (
        "test seam: a hung worker's lease expires in a second, not in 30"
    ),
    "repro.faults.chaos.run_chaos.tracer": (
        "a coordinate of the serial reference sweep whose trace every placement equals"
    ),
    "repro.faults.models.DuplicationFault.scope": (
        "kept for now: the duplicated-control test duplicates control "
        "datagrams only, to count the inline clock's refusals exactly"
    ),
    "repro.lowerbounds.crowns.find_crown.node_budget": (
        "a coordinate of the tests' reference crown search (its exhaustion test)"
    ),
    "repro.net.node.ClusterSpec.host": "deployment setting: the address every node binds",
    "repro.net.virtual._Pipe.get_extra_info.default": "asyncio.Transport method signature",
    "repro.net.virtual._Pipe.set_write_buffer_limits.low": "asyncio.Transport method signature",
    "repro.net.virtual._Timeline.register.data": "selectors.BaseSelector method signature",
    "repro.net.virtual._Timeline.select.timeout": "selectors.BaseSelector method signature",
    "repro.sim.runner.Simulation._send_control_datagram.kind": (
        "the reliable control transport calls it back as send_datagram(..., kind=)"
    ),
    "repro.sim.runner.Simulation.app_loss_rate": (
        "DESIGN.md section 5: a fault model in its place would move "
        "metrics_seed7.json and the metrics digests"
    ),
    "repro.sim.workload.BroadcastWorkload.rounds": (
        "kept for now: test_multiple_rounds compares one round with two"
    ),
    "repro.sim.workload.ClientServerWorkload.rate": (
        "kept for now: the non-finite-rate refusal tests construct with it"
    ),
    "repro.sim.workload.ClientServerWorkload.reply_prob": (
        "the client-server metrics digests were made with 0.7"
    ),
    "repro.sim.workload.UniformWorkload.rate": (
        "kept for now: the non-finite-rate refusal tests construct with it"
    ),
    "repro.sync.decomposition.star_decomposition.cover": (
        "kept for now: the decomposition tests pick centres and a bad cover"
    ),
    "repro.topology.graph.CommunicationGraph.connected_components.ignore": (
        "the tests' brute-force vertex-connectivity reference removes vertices with it"
    ),
    "repro.topology.vertex_cover.best_cover.node_budget": (
        "kept for now: the memoization test keys the memo by budget"
    ),
}


def exports():
    """``(package, submodule, name)`` for every entry of every ``_EXPORTS``."""
    out = []
    for init in sorted(SRC.glob("*/__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and node.targets[0].id == "_EXPORTS":
                table = ast.literal_eval(node.value)
                package = f"repro.{init.parent.name}"
                out += [(package, sub, name) for sub, names in table.items() for name in names]
    return out


def tree_words(tree):
    """The words a parsed file's code uses: a comment is not code, and prose
    in a docstring or message is never a string that is one identifier."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            words.add(node.value)
    return words


@lru_cache(maxsize=None)
def trees():
    """Each file that may use an export or a method, parsed once."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in USER_DIRS
        for path in (ROOT / top).rglob("*.py")
    }


def code_words(source):
    """The words *source*'s code uses (see :func:`tree_words`)."""
    return tree_words(ast.parse(source))


@lru_cache(maxsize=None)
def words_by_file():
    """The code words of each file that may use an export."""
    return {
        path: tree_words(tree)
        for path, tree in trees().items()
        if path.name != "__init__.py"
    }


def methods():
    """``repro.<module>.<Class>.<name>`` of every public method and property
    defined in a class of ``src/``."""
    out = []
    for path, tree in trees().items():
        if SRC not in path.parents:
            continue
        module = ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                out += [
                    f"{module}.{cls.name}.{item.name}" for item in cls.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
    return out


def method_has_user(qualname):
    name = qualname.rsplit(".", 1)[1]
    return any(name in words for words in words_by_file().values())


def has_user(package, sub, name):
    home = SRC / package.split(".")[1] / f"{sub}.py"
    return any(
        name in words for path, words in words_by_file().items() if path != home
    )


def test_every_export_has_a_user_outside_the_tests():
    unused = [
        f"{package}.{name}" for package, sub, name in exports()
        if f"{package}.{name}" not in ALLOWED and not has_user(package, sub, name)
    ]
    assert unused == [], (
        "only tests use these exports: delete each, or drop it from _EXPORTS "
        "if its own module uses it, or allow-list it with a reason"
    )


def test_every_allowed_name_is_exported():
    exported = {f"{package}.{name}" for package, _, name in exports()}
    assert sorted(set(ALLOWED) - exported) == []


def test_no_allowed_name_has_a_user_already():
    needless = [
        f"{package}.{name}" for package, sub, name in exports()
        if f"{package}.{name}" in ALLOWED and has_user(package, sub, name)
    ]
    assert needless == [], "these have a non-test user: take them off ALLOWED"


def test_every_public_method_has_a_user_outside_the_tests():
    unused = [
        name for name in methods()
        if name not in ALLOWED_METHODS and not method_has_user(name)
    ]
    assert unused == [], (
        "only tests use these methods: delete each, or make it private if its "
        "own class uses it, or allow-list it with a reason"
    )


def test_every_allowed_method_is_defined_and_still_unused():
    defined = set(methods())
    assert sorted(set(ALLOWED_METHODS) - defined) == []
    needless = [name for name in ALLOWED_METHODS if method_has_user(name)]
    assert needless == [], "these have a non-test user: take them off ALLOWED_METHODS"


def test_prose_is_not_a_use():
    source = (
        '"""Prose: planted_a."""\nimport planted_b.planted_c\n# planted_d\n'
        'planted_e.planted_f("planted_g", "planted_h words", f"{planted_i}")\n'
    )
    assert {w for w in code_words(source) if w.startswith("planted")} == {
        "planted_b", "planted_c", "planted_e", "planted_f", "planted_g", "planted_i",
    }


def _walk(tree):
    """Every node of *tree*, each with the class it sits in (or ``None``)."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        yield node, cls
        if isinstance(node, ast.ClassDef):
            cls = node
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))


def _last_name(node):
    """``f`` for the callee ``f`` or ``a.b.f``, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def file_calls(tree):
    """``({callee: [(keywords, positional count, forwards *args)]}, touched)``
    for the calls in *tree*: a ``**kwargs`` forward is the keyword ``None``;
    *touched* holds the attribute names stored to or called a method on."""
    calls = defaultdict(list)
    touched = set()
    for node, cls in _walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            touched.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            touched.add(func.value.attr)
        callees = [_last_name(func)]
        if callees[0] == "partial" and args:
            callees, args = [_last_name(args[0])], args[1:]
        elif (callees[0] == "__init__" and cls is not None
              and isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
              and _last_name(func.value.func) == "super"):
            callees = [_last_name(base) for base in cls.bases]
        record = (
            {kw.arg for kw in node.keywords},
            len(args),
            any(isinstance(arg, ast.Starred) for arg in args),
        )
        for callee in callees:
            calls[callee].append(record)
    return calls, touched


@lru_cache(maxsize=None)
def setters():
    """:func:`file_calls` over every file that may set an option."""
    calls = defaultdict(list)
    touched = set()
    for tree in trees().values():
        file_calls_, file_touched = file_calls(tree)
        for callee, records in file_calls_.items():
            calls[callee] += records
        touched |= file_touched
    return calls, touched


def _is_dataclass(cls):
    return any(
        _last_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    ) or any(_last_name(base) == "NamedTuple" for base in cls.bases)


def _init_fields(cls):
    """``(name, has a default)`` for each ``__init__`` field of a dataclass."""
    out = []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _last_name(value.func) == "field":
            options = {kw.arg: kw.value for kw in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            out.append((item.target.id, "default" in options or "default_factory" in options))
        else:
            out.append((item.target.id, value is not None))
    return out


def _function_params(func, skip_self):
    """``(name, position)`` for each parameter of *func* with a default;
    the position is ``None`` for a keyword-only one."""
    a = func.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(arg.arg, i - skip_self) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def params():
    """``(qualname, callees, name, position)`` for every option of ``src/``:
    each parameter with a default, and each dataclass field with one."""
    classes = {}  # class name -> its ClassDef nodes, anywhere in src/
    found = []  # (qualname, cls, func, name, position)

    def visit(body, module, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
                if _is_dataclass(node):
                    for i, (name, has_default) in enumerate(_init_fields(node)):
                        if has_default:
                            found.append((f"{module}.{node.name}.{name}", node, None, name, i))
                visit(node.body, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(_last_name(d) == "staticmethod" for d in node.decorator_list)
                skip_self = int(cls is not None and not static)
                owner = f"{module}.{cls.name}" if cls is not None else module
                qual = owner if node.name == "__init__" else f"{owner}.{node.name}"
                for name, position in _function_params(node, skip_self):
                    found.append((f"{qual}.{name}", cls, node, name, position))

    for path, tree in trees().items():
        if SRC in path.parents:
            module = ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts))
            visit(tree.body, module, None)

    def heirs(name):
        """*name* and the classes that inherit its constructor."""
        out = {name}
        for sub, nodes in classes.items():
            for node in nodes:
                if (
                    name in {_last_name(b) for b in node.bases}
                    and not _is_dataclass(node)
                    and not any(
                        isinstance(i, ast.FunctionDef) and i.name == "__init__"
                        for i in node.body
                    )
                ):
                    out |= heirs(sub)
        return out

    out = []
    for qual, cls, func, name, position in found:
        if func is None or func.name == "__init__":
            callees = frozenset(heirs(cls.name))
        else:
            callees = frozenset({func.name})
        out.append((qual, callees, name, position, func is None))
    return out


def param_is_set(callees, name, position, is_field):
    calls, touched = setters()
    if is_field and name in touched:
        return True
    return any(
        name in keywords or None in keywords
        or (position is not None and (n_positional > position or starred))
        for callee in callees
        for keywords, n_positional, starred in calls.get(callee, ())
    )


@lru_cache(maxsize=None)
def unset_params():
    return [qual for qual, *rule in params() if not param_is_set(*rule)]


def test_every_option_is_set_outside_the_tests():
    unset = [qual for qual in unset_params() if qual not in ALLOWED_PARAMS]
    assert unset == [], (
        "nothing outside the tests sets these options: make each a constant, "
        "or allow-list it with a reason"
    )


def test_every_allowed_option_is_defined_and_still_unset():
    defined = {qual for qual, *_ in params()}
    assert sorted(set(ALLOWED_PARAMS) - defined) == []
    needless = sorted(set(ALLOWED_PARAMS) - set(unset_params()))
    assert needless == [], "these have a non-test setter: take them off ALLOWED_PARAMS"


def test_positional_partial_and_super_calls_set_options():
    source = (
        "class Base:\n"
        "    def __init__(self, planted_a=1): ...\n"
        "class Sub(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(2)\n"
        "planted_f(1, 2)\n"
        "partial(planted_g, planted_b=3)\n"
        "planted_h(**options)\n"
        "record.planted_c += 1\n"
    )
    calls, touched = file_calls(ast.parse(source))
    assert calls["Base"] == [(set(), 1, False)]
    assert calls["planted_f"] == [(set(), 2, False)]
    assert calls["planted_g"] == [({"planted_b"}, 0, False)]
    assert calls["planted_h"] == [({None}, 0, False)]
    assert "planted_c" in touched
