"""Inputs are a function of the seed: equal for equal seeds, else different."""

import pytest

import inputs
import stats


def edges(graph):
    return sorted(tuple(sorted(e)) for e in graph.edges)


def test_sequencer_graph_is_seeded():
    g1, cover1 = inputs.sequencer_graph(7)
    g2, cover2 = inputs.sequencer_graph(7)
    g3, _cover3 = inputs.sequencer_graph(8)
    assert edges(g1) == edges(g2) and cover1 == cover2 == (0, 1, 2)
    assert edges(g1) != edges(g3)
    assert g1.n_vertices == 23
    # the sequencers cover every edge: that is what makes 2|VC|+2 = 8
    assert all(u in cover1 or v in cover1 for u, v in g1.edges)


def test_op_lists_are_seeded():
    _g, a = inputs.star_ops(3, 8, 200)
    _g, b = inputs.star_ops(3, 8, 200)
    _g, c = inputs.star_ops(4, 8, 200)
    assert a == b and a != c
    graph, _cover = inputs.sequencer_graph(3)
    assert inputs.graph_ops(graph, 3, 100) == inputs.graph_ops(graph, 3, 100)
    assert inputs.graph_ops(graph, 3, 100) != inputs.graph_ops(graph, 4, 100)


def test_op_lists_leave_nothing_in_flight():
    _g, ops = inputs.star_ops(5, 8, 300)
    sent = {op[1] for op in ops if op[0] == "send"}
    received = {op[1] for op in ops if op[0] == "recv"}
    assert sent == received


def test_store_config_and_cells_carry_the_seed():
    sizes = inputs.sizes_for("smoke", "kv-live-inline")
    assert inputs.store_config(9, sizes) == inputs.store_config(9, sizes)
    assert inputs.store_config(9, sizes).seed == 9
    assert inputs.store_config(9, sizes) != inputs.store_config(10, sizes)
    sizes = inputs.sizes_for("smoke", "fabric-sweep")
    assert inputs.fabric_specs(2, sizes) == inputs.fabric_specs(2, sizes)
    assert inputs.fabric_specs(2, sizes) != inputs.fabric_specs(3, sizes)
    assert inputs.selftest_cells(2, sizes) != inputs.selftest_cells(3, sizes)
    trials = sum(spec["hi"] - spec["lo"] for spec in inputs.fabric_specs(2, sizes))
    assert trials == sizes["trials"]


def test_sampled_pairs_are_seeded():
    ids = list(range(50))
    assert inputs.sample_pairs(1, ids, 20) == inputs.sample_pairs(1, ids, 20)
    assert inputs.sample_pairs(1, ids, 20) != inputs.sample_pairs(2, ids, 20)


@pytest.mark.parametrize("preset", sorted(inputs.SIZES))
def test_every_workload_has_sizes(preset):
    for name in inputs.WORKLOADS:
        assert inputs.sizes_for(preset, name)


def test_full_live_run_pools_enough_latencies_for_a_p99():
    sizes = inputs.sizes_for("full", "kv-live-inline")
    pooled = sizes["min_reps"] * inputs.N_CLIENTS * sizes["ops_per_client"]
    assert stats.supported_percentile(pooled) >= 0.99
