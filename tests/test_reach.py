"""Every exported name has a user outside the tests.

A subpackage's ``_EXPORTS`` table (``src/repro/*/__init__.py``) is its public
surface.  A name earns its place there by a user that is not a test: another
module of ``src/`` (not its own, not an ``__init__``), a benchmark, an
example, the ``perf/`` harness or a tool.  A name that only tests use is
either dead (delete it, with the tests that exercise only it) or private to
its module (drop it from the table and keep the code).  ``ALLOWED`` lists the
exceptions, each with its reason: a result type, exception or constant that
a public function hands its caller, or a function the tests use as an
independent reference for other code.

Each file is read once into the set of words its code uses: names,
attributes, imported names and strings that are one identifier, so a comment,
docstring or message that mentions a name is not a user.  A name
costs one set lookup per file.  The word set cannot see a name built at run
time, so a name it flags is checked by hand before it goes.
"""

from __future__ import annotations

import ast
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


def code_words(source):
    """The words *source*'s code uses: a comment is not code, and prose in a
    docstring or message is never a string that is one identifier."""
    words = set()
    for node in ast.walk(ast.parse(source)):
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
def words_by_file():
    """The code words of each file that may use an export."""
    return {
        path: code_words(path.read_text(encoding="utf-8"))
        for top in USER_DIRS
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    }


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


def test_prose_is_not_a_use():
    source = (
        '"""Prose: planted_a."""\nimport planted_b.planted_c\n# planted_d\n'
        'planted_e.planted_f("planted_g", "planted_h words", f"{planted_i}")\n'
    )
    assert {w for w in code_words(source) if w.startswith("planted")} == {
        "planted_b", "planted_c", "planted_e", "planted_f", "planted_g", "planted_i",
    }
