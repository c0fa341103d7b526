"""E10 — Figure 4: the sequencer architecture.

Claims reproduced in shape:

- sequencers form a vertex cover, so inline timestamps have
  ``2·#sequencers + 2`` elements however many clients/servers exist — the
  vector clock grows linearly with the deployment;
- every hop has a sequencer end: E10c counts the hops of each frame type
  that carry a value and those that carry metadata only; the data-direct
  optimization would take the first kind off the sequencers;
- the store is causally consistent throughout.

Each run is :func:`run_store`: the live roles of ``repro kv-live`` on
virtual time.
"""

import pytest

from repro.analysis.reports import format_table
from repro.applications.causal_kv import (
    StoreConfig,
    run_store,
    verify_causal_reads,
)

from _common import print_header


def scale_rows():
    rows = []
    for n_clients in (4, 8, 16):
        cfg = StoreConfig(
            n_sequencers=2,
            n_servers=3,
            n_clients=n_clients,
            ops_per_client=6,
            seed=n_clients,
        )
        run = run_store(cfg)
        ok = verify_causal_reads(run) == []
        rows.append(
            (
                cfg.total_processes(),
                n_clients,
                run.inline_max_elements,
                run.vector_elements,
                ok,
            )
        )
    return rows


def test_e10_timestamp_scaling(benchmark):
    rows = benchmark.pedantic(scale_rows, rounds=1, iterations=1)
    print_header("E10: Figure-4 store — timestamp size vs deployment size")
    print(
        format_table(
            ["total processes", "clients", "inline elements",
             "vector elements", "causally consistent"],
            rows,
        )
    )
    inline_sizes = {r[2] for r in rows}
    assert len(inline_sizes) == 1  # constant in deployment size
    assert inline_sizes == {2 * 2 + 2}
    for total, _c, inline, vector, ok in rows:
        assert vector == total  # grows with the deployment
        assert ok
    assert rows[-1][3] > rows[0][3]


def test_e10_sequencer_count_tradeoff(benchmark):
    """More sequencers => bigger timestamps but more routing capacity."""

    def sweep():
        rows = []
        for n_seq in (1, 2, 4):
            cfg = StoreConfig(
                n_sequencers=n_seq,
                n_servers=4,
                n_clients=8,
                ops_per_client=5,
                seed=7,
            )
            run = run_store(cfg)
            rows.append(
                (
                    n_seq,
                    run.inline_max_elements,
                    2 * n_seq + 2,
                    run.vector_elements,
                    verify_causal_reads(run) == [],
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E10b: timestamp size vs number of sequencers")
    print(
        format_table(
            ["sequencers", "inline elements", "bound 2S+2",
             "vector elements", "consistent"],
            rows,
        )
    )
    for n_seq, inline, bound, _v, ok in rows:
        assert inline <= bound
        assert ok
    assert rows[0][1] < rows[-1][1]  # grows with sequencer count


def test_e10_traffic_optimization(benchmark):
    def run():
        cfg = StoreConfig(
            n_sequencers=2, n_servers=4, n_clients=8, ops_per_client=6, seed=5
        )
        return run_store(cfg)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    t = run_result.traffic
    print_header("E10c: sequencer hops per frame type, data vs metadata (Fig. 4)")
    print(
        format_table(
            ["frame", "data hops", "meta hops"],
            [[frame, t.data[frame], t.meta[frame]] for frame in t.data]
            + [["all", t.data_hops, t.meta_hops]],
        )
    )
    # every message is one hop, and every hop touches a sequencer
    assert t.data_hops + t.meta_hops == len(run_result.execution.messages)
    assert t.data_hops > 0 and t.meta_hops > 0
