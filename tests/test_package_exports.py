"""The packages' public surface, pinned across the move to lazy re-exports.

Every subpackage ``__init__`` resolves its names on first access through a
``{submodule: (name, ...)}`` table (``repro/_exports.py``) and repeats the
same imports under ``if TYPE_CHECKING:`` for type checkers.  These tests pin
``__all__`` (the eager ``__init__``s' lists, less the names that had no user
outside tests; ``tests/test_reach.py`` keeps it that way), check
that each name is the object its defining module holds, and read the two
lists with ``ast`` so that the table and the typed imports cannot drift.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``sorted(__all__)`` of each package
PUBLIC = {
    "repro": [
        "CommunicationGraph", "CoverInlineClock", "Event", "EventId", "EventKind",
        "Execution", "ExecutionBuilder", "HappenedBeforeOracle", "LamportClock",
        "MetricsRegistry", "RunTracer", "StarInlineClock", "VectorClock", "__version__",
        "metric", "replay", "replay_one", "use_registry",
    ],
    "repro.analysis": [
        "LatencySummary", "ReliabilitySummary", "SizeComparison", "compare_sizes",
        "counter_bits", "crossover_cover_size", "expected_star_finalization_latency",
        "finalization_latency_cdf", "finalized_fraction_curve", "format_series",
        "format_table", "id_bits", "inline_bits", "inline_elements",
        "mean_inflight_events", "percentile", "summarize_latencies",
        "summarize_reliability", "vector_bits", "vector_elements",
    ],
    "repro.applications": [
        "AnalysisSession", "ConflictReport", "CutSample", "DetectionLag",
        "DetectionResult", "FinalizedCutMonitor", "Operation", "RecoveryComparison",
        "Snapshot", "StoreConfig", "StoreRunResult", "TrafficReport", "WriteRecord",
        "conflict_resolution_status", "cut_evolution", "definitely",
        "detect_conjunctive", "detect_with_inline", "detection_lag",
        "is_causal_schedule", "periodic_checkpoints", "possibly", "recovery_line",
        "recovery_line_lag", "replay_schedule", "run_store", "verify_causal_reads",
    ],
    "repro.baselines": [
        "ClusterClock", "ClusterTimestamp", "EncodedClock", "EncodedTimestamp",
        "HLCTimestamp", "HybridLogicalClock", "PlausibleClock", "PlausibleTimestamp",
        "counter_time_source",
    ],
    "repro.clocks": [
        "ClockAlgorithm", "ClockHost", "CoverInlineClock", "CoverTimestamp", "DuplicateControl",
        "INFINITY", "LamportClock", "LamportTimestamp", "SKVectorClock",
        "StarInlineClock", "StarTimestamp", "Timestamp", "TimestampAssignment",
        "ValidationReport", "VectorClock", "VectorTimestamp", "replay", "replay_one",
        "vector_leq", "vector_lt",
    ],
    "repro.conformance": [
        "CASE_SCHEMA", "ConformanceReport", "CorpusCase", "INVARIANTS", "Mismatch",
        "SchemeSpec", "all_schemes", "case_from_mismatch", "check_execution", "fuzz",
        "load_corpus", "replay_case", "save_case", "scheme_by_name", "schemes_for",
        "shrink_mismatch", "star_center_of",
    ],
    "repro.core": [
        "ColumnarExecution", "ColumnarExecutionBuilder", "Cut", "Event", "EventId",
        "EventKind", "EventStore", "Execution", "ExecutionBuilder", "ExecutionError",
        "HappenedBeforeOracle", "IncrementalHBOracle", "Message", "MessageId",
        "ProcessId", "as_batch_oracle", "cut_from_events", "cut_size", "empty_cut",
        "events_in_cut", "frontier", "full_cut", "incremental_from_execution",
        "is_consistent", "join", "load_execution", "max_consistent_cut_within", "meet",
        "random_execution", "save_execution",
    ],
    "repro.fabric": [
        "CellFailed", "FABRIC_SCHEMA", "FabricInterrupted", "FabricReport",
        "ResultStore", "StoreError", "WORK_KINDS", "WorkQueue", "canonical_json",
        "cell_key", "execute_cell", "run_fabric",
    ],
    "repro.faults": [
        "ChaosCell", "ChaosReport", "ChaosScenario", "CompositeFault", "CrashSchedule",
        "DELIVER", "DROP", "DuplicationFault", "FaultModel", "GilbertElliottLoss",
        "MessageFate", "NEVER", "PartitionFault", "ROW_HEADER", "default_scenarios",
        "run_chaos",
    ],
    "repro.lowerbounds": [
        "AdversaryResult", "CrownWitness", "DroppedCoordinateScheme",
        "FoldedVectorScheme", "Poset", "ProjectedVectorScheme", "SearchOutcome",
        "VectorAssignmentReport", "Violation", "ViolationKind",
        "certified_dimension_lower_bound", "charron_bost_execution",
        "check_vector_assignment", "execution_dimension_exceeds_2", "find_crown",
        "find_high_dimension_execution", "flooding_adversary",
        "has_dimension_at_most_2", "is_crown_embedding",
        "offline_two_element_assignment", "offline_vector_timestamps",
        "random_star_execution", "realizer2", "star_adversary_integer",
        "star_adversary_real", "theorem_4_4_witness", "two_element_vectors",
        "verify_offline_vectors", "verify_realizer",
    ],
    "repro.net": [
        "AddressBook", "ChaosInterposer", "ClientNode", "ClusterSpec",
        "ConnectionClosed", "CrashPlan", "CrashSnapshot", "FileAddressBook",
        "LIVE_CLOCKS", "LiveClockHost", "LiveNode", "LiveReport", "PeerClient",
        "RequestTimeout", "RpcServer", "ServerNode", "Supervisor", "TransportError",
        "TransportPolicy", "make_node", "pack_payload", "run_live_store",
        "run_live_store_sync", "run_virtual", "unpack_payload",
    ],
    "repro.obs": [
        "BYTE_BUCKETS", "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
        "METRICS_SCHEMA", "MetricsRegistry", "RunTracer", "TRACE_SCHEMA",
        "VTIME_BUCKETS", "active_registry", "counter", "deterministic_run_id", "gauge",
        "load_trace", "metric", "registry_from_trace", "render_report", "run_header",
        "use_registry",
    ],
    "repro.sim": [
        "AlgorithmStats", "BroadcastWorkload", "ClientServerWorkload", "ConstantDelay",
        "ControlTransport", "DelayModel", "EventScheduler", "FloodTiming", "Network",
        "PerChannelDelay", "ReliableLink", "RetryPolicy", "Simulation",
        "SimulationResult", "UniformDelay", "UniformWorkload", "Workload",
        "slow_victim_flood",
    ],
    "repro.sync": [
        "Component", "ComponentSyncClock", "ComponentTimestamp", "Decomposition",
        "SyncSimResult", "best_decomposition", "handshake", "internal_event",
        "joint_happened_before", "random_sync_execution", "simulate_sync",
        "star_decomposition", "star_triangle_decomposition", "timestamp_mismatches",
    ],
    "repro.topology": [
        "CommunicationGraph", "Edge", "adversary_diameter", "best_cover",
        "exact_minimum_cover", "generators", "greedy_degree_cover", "lemma_2_4_set_x",
        "matching_cover", "vertex_connectivity",
    ],
}

SUBPACKAGES = sorted(set(PUBLIC) - {"repro"})

#: names that shadow their own submodule and so stay eagerly bound
EAGER = {"repro.clocks": {("replay", "replay")}}


def init_tree(pkg_name):
    return ast.parse((SRC / pkg_name.replace(".", "/") / "__init__.py").read_text())


def is_type_checking_block(node):
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def import_pairs(pkg_name, statements):
    """``(submodule, name)`` for each ``from repro.pkg[.sub] import name as name``."""
    pairs = set()
    for node in statements:
        if not isinstance(node, ast.ImportFrom) or not node.module.startswith(pkg_name):
            continue
        for alias in node.names:
            assert alias.asname == alias.name, (
                f"{pkg_name}: {alias.name} is not re-exported as itself"
            )
            if node.module == pkg_name:
                pairs.add((alias.name, alias.name))
            else:
                pairs.add((node.module[len(pkg_name) + 1:], alias.name))
    return pairs


def runtime_table(pkg_name):
    for node in init_tree(pkg_name).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_EXPORTS":
            table = ast.literal_eval(node.value)
            return {(sub, name) for sub, names in table.items() for name in names}
    raise AssertionError(f"{pkg_name} has no _EXPORTS table")


def defining_object(pkg_name, module_name, name):
    if module_name == pkg_name:  # ``from repro.topology import generators``
        return importlib.import_module(f"{module_name}.{name}")
    return getattr(importlib.import_module(module_name), name)


def declared_sources(pkg_name):
    """``{name: defining module}`` as the ``__init__``'s imports state it."""
    sources = {}
    for node in ast.walk(init_tree(pkg_name)):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro."):
            for alias in node.names:
                sources[alias.asname or alias.name] = node.module
    return sources


@pytest.mark.parametrize("pkg_name", sorted(PUBLIC))
class TestSurface:
    def test_all_is_pinned(self, pkg_name):
        assert sorted(importlib.import_module(pkg_name).__all__) == PUBLIC[pkg_name]

    def test_every_name_is_its_defining_object(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        sources = declared_sources(pkg_name)
        for name in pkg.__all__:
            if name == "__version__":
                continue
            expected = defining_object(pkg_name, sources[name], name)
            assert getattr(pkg, name) is expected, f"{pkg_name}.{name}"
            assert vars(pkg)[name] is expected, f"{pkg_name}.{name} is not cached"

    def test_dir_covers_all(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_exactly_all(self, pkg_name):
        namespace = {}
        exec(f"from {pkg_name} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(PUBLIC[pkg_name])

    def test_unknown_name_is_an_attribute_error(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        message = f"module '{pkg_name}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=message):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")


@pytest.mark.parametrize("pkg_name", SUBPACKAGES)
class TestLazyInit:
    def test_typed_imports_match_the_table(self, pkg_name):
        body = init_tree(pkg_name).body
        (block,) = [node for node in body if is_type_checking_block(node)]
        eager = EAGER.get(pkg_name, set())
        assert import_pairs(pkg_name, block.body) == runtime_table(pkg_name)
        assert import_pairs(pkg_name, body) == eager
        names = {name for _, name in runtime_table(pkg_name) | eager}
        assert names == set(PUBLIC[pkg_name])

    def test_no_submodule_is_imported_eagerly(self, pkg_name):
        eager = {f"{pkg_name}.{sub}" for sub, _ in EAGER.get(pkg_name, set())}
        for node in init_tree(pkg_name).body:
            assert not isinstance(node, ast.Import), ast.unparse(node)
            if isinstance(node, ast.ImportFrom):
                assert node.module in {"typing", *eager}, ast.unparse(node)
            elif is_type_checking_block(node):
                (runtime,) = [
                    child for child in node.orelse
                    if isinstance(child, ast.ImportFrom)
                ]
                assert runtime.module == "repro._exports"


def fresh(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


REPLAY_IS_THE_FUNCTION = """
import sys, types
from repro.clocks import replay
module = sys.modules["repro.clocks.replay"]
assert isinstance(replay, types.FunctionType), replay
assert replay is module.replay is sys.modules["repro.clocks"].replay
"""

GENERATORS_IS_THE_MODULE = """
import sys
from repro.topology import generators
module = sys.modules["repro.topology.generators"]
assert generators is module is sys.modules["repro.topology"].generators
"""


@pytest.mark.parametrize("order", ["submodule-first", "package-first"])
class TestShadowingInBothOrders:
    def test_clocks_replay_is_the_function(self, order):
        first = (
            "import importlib; importlib.import_module('repro.clocks.replay')\n"
            if order == "submodule-first" else "import repro.clocks\n"
        )
        then = (
            "import repro.clocks\n" if order == "submodule-first"
            else "import importlib; importlib.import_module('repro.clocks.replay')\n"
        )
        fresh(first + then + REPLAY_IS_THE_FUNCTION)

    def test_topology_generators_is_the_module(self, order):
        first = (
            "import repro.topology.generators\n" if order == "submodule-first"
            else "import repro.topology; repro.topology.generators\n"
        )
        fresh(first + GENERATORS_IS_THE_MODULE)
