"""Tests for the Figure-4 sequencer-based causal KV store."""

import pytest

from repro.applications.causal_kv import (
    CausalViolation,
    Operation,
    StoreConfig,
    WriteRecord,
    audit_operations,
    run_store,
    verify_causal_reads,
)
from repro.core import HappenedBeforeOracle


class TestStoreRuns:
    def make(self, **kw):
        defaults = dict(
            n_sequencers=2, n_servers=3, n_clients=4, ops_per_client=6, seed=0
        )
        defaults.update(kw)
        return run_store(StoreConfig(**defaults))

    def test_all_operations_complete(self):
        run = self.make()
        assert run.completed_operations == 4 * 6

    def test_causal_consistency(self):
        for seed in range(3):
            run = self.make(seed=seed)
            assert verify_causal_reads(run) == []

    def test_sequencers_form_cover(self):
        run = self.make()
        assert run.graph.is_vertex_cover(run.sequencers)

    def test_inline_timestamps_at_bound(self):
        run = self.make()
        assert run.inline_max_elements <= 2 * len(run.sequencers) + 2

    def test_inline_smaller_than_vector_for_many_clients(self):
        run = self.make(n_clients=10)
        assert run.inline_max_elements < run.vector_elements

    def test_inline_clock_characterizes_store_execution(self):
        for seed in range(4):
            run = self.make(ops_per_client=4, seed=seed)
            oracle = HappenedBeforeOracle(run.execution)
            assert run.assignment.validate(oracle).characterizes, seed

    def test_run_is_a_function_of_the_config(self):
        first, second = self.make(seed=5), self.make(seed=5)
        assert first.operations == second.operations
        assert first.writes == second.writes
        assert first.traffic == second.traffic
        assert list(first.execution.all_events()) == list(
            second.execution.all_events()
        )
        assert list(first.assignment.items()) == list(second.assignment.items())

    def test_write_versions_serialized_per_key(self):
        run = self.make(write_fraction=1.0)
        by_key = {}
        for w in run.writes:
            by_key.setdefault(w.key, []).append(w.version)
        for key, versions in by_key.items():
            assert sorted(versions) == list(range(1, len(versions) + 1))

    def test_read_only_workload(self):
        run = self.make(write_fraction=0.0)
        assert all(op.kind == "r" for op in run.operations)
        assert all(op.version == 0 for op in run.operations)
        assert verify_causal_reads(run) == []


class TestStoreConfigValidation:
    def test_defaults_are_valid(self):
        StoreConfig()

    @pytest.mark.parametrize(
        "kw,needle",
        [
            (dict(n_sequencers=0), "n_sequencers"),
            (dict(n_servers=-1), "n_servers"),
            (dict(n_clients=0), "n_clients"),
            (dict(n_keys=0), "n_keys"),
            (dict(ops_per_client=-3), "ops_per_client"),
            (dict(write_fraction=1.5), "write_fraction"),
            (dict(write_fraction=-0.1), "write_fraction"),
        ],
    )
    def test_bad_values_rejected_with_field_name(self, kw, needle):
        with pytest.raises(ValueError, match=needle):
            StoreConfig(**kw)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="n_clients"):
            StoreConfig(n_clients=2.5)


class TestViolationContext:
    """Failed audits carry enough context to debug: session, key, expected
    vs observed version, and the violated dependency edge."""

    def _fixture(self):
        writes = [
            WriteRecord(
                key="a", version=1, writer=0, writer_session_index=0, deps={},
            )
        ]
        operations = [
            Operation(client=0, session_index=0, kind="w", key="a",
                      version=1, write_index=0),
            Operation(client=1, session_index=0, kind="r", key="a",
                      version=1, write_index=0),
            Operation(client=1, session_index=1, kind="r", key="a",
                      version=0, write_index=None),
        ]
        return operations, writes

    def test_clean_audit_compares_equal_to_empty_list(self):
        operations, writes = self._fixture()
        assert audit_operations(operations[:2], writes) == []

    def test_regression_and_stale_read_are_both_reported(self):
        operations, writes = self._fixture()
        problems = audit_operations(operations, writes)
        kinds = {p.kind for p in problems}
        assert kinds == {"regression", "stale-read"}

    def test_regression_context(self):
        operations, writes = self._fixture()
        reg = next(
            p for p in audit_operations(operations, writes)
            if p.kind == "regression"
        )
        assert (reg.client, reg.session_index, reg.key) == (1, 1, "a")
        assert reg.observed_version == 0
        assert reg.expected_version == 1
        assert reg.dependency is None
        assert str(reg) == "client p1 saw a regress 1 -> 0"

    def test_stale_read_names_the_violated_dependency_edge(self):
        operations, writes = self._fixture()
        stale = next(
            p for p in audit_operations(operations, writes)
            if p.kind == "stale-read"
        )
        assert (stale.client, stale.session_index, stale.key) == (1, 1, "a")
        assert stale.observed_version == 0
        assert stale.expected_version == 1
        # the read at (1, 0) pulled a@v1 into this session's causal past
        assert stale.dependency == (1, 0)
        assert str(stale) == (
            "read #1 of a by p1 returned v0 < causally required v1"
        )

    def test_simulated_violations_render_structured(self):
        run = run_store(StoreConfig(ops_per_client=4, seed=0))
        violations = verify_causal_reads(run)
        assert violations == []
        assert isinstance(violations, list)


class TestTraffic:
    def test_hop_accounting_consistent(self):
        run = run_store(StoreConfig(seed=2, ops_per_client=5))
        t = run.traffic
        writes = sum(op.kind == "w" for op in run.operations)
        reads = len(run.operations) - writes
        # fault-free, every request is answered, and a hop is one message
        assert t.data == t.meta
        assert t.data_hops + t.meta_hops == len(run.execution.messages)
        assert t.data["op/w"] == t.data["commit"] == writes == len(run.writes)
        assert t.data["op/r"] == t.data["read"] == reads
        # a commit replicates to each other server through a sequencer
        assert t.data["repl"] == 2 * writes * (run.config.n_servers - 1)

    def test_more_servers_more_replication_traffic(self):
        small = run_store(StoreConfig(n_servers=2, seed=3, ops_per_client=5))
        large = run_store(StoreConfig(n_servers=5, seed=3, ops_per_client=5))
        assert large.traffic.data_hops > small.traffic.data_hops
