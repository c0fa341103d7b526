"""Workload inputs, generated in the harness from ``--seed``.

The library receives only what is generated here: a graph and its vertex
cover, an op list, a store config, a list of cell specs.  The same seed
gives the same inputs; different seeds give different ones.

Sizes are fixed per preset.  ``full`` is what ``BENCHMARK.json`` measures;
``smoke`` is a few hundred events per workload so the whole harness can be
exercised by its own tests in seconds.
"""

from __future__ import annotations

import pathlib
import random
from typing import Any, Dict, List, Tuple

#: everything the benchmark writes (traces, results, scratch stores) goes here
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def result_path(workload: str, trace: int) -> pathlib.Path:
    """Where the harness leaves a run's full result for ``run.py`` to read."""
    return OUT_DIR / f"result-{workload}-trace{trace}.json"


WORKLOADS = (
    "sim-stream",
    "sim-scale",
    "offline-nine",
    "kv-live-inline",
    "kv-live-vector",
    "fabric-sweep",
)

#: the Figure-4 deployment every sim and live workload uses
N_SEQUENCERS, N_SERVERS, N_CLIENTS = 3, 4, 16

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "sim-stream": {"events_per_process": 300, "validate_pairs": 15_000},
        "sim-scale": {
            "events_per_process": 500,
            "store_probe_steps": 8_192,
            "obs_calls": 300_000,
        },
        "offline-nine": {
            "star_n": 32,
            "steps": 4_096,
            "inexact_steps": 1_024,
            "encoded_steps": 512,
            "compare_pairs": 20_000,
            "query_pairs": 100_000,
        },
        "kv-live": {
            "ops_per_client": 20,
            "n_keys": 8,
            "rpc_round_trips": 2_000,
            # 4 x 320 pooled latencies: ten and more lie beyond their p99
            "min_reps": 4,
        },
        "fabric-sweep": {
            "trials": 100,
            "chunk_size": 5,
            "max_steps": 30,
            "selftest_cells": 100,
        },
    },
    "smoke": {
        "sim-stream": {"events_per_process": 12, "validate_pairs": 300},
        "sim-scale": {
            "events_per_process": 20,
            "store_probe_steps": 256,
            "obs_calls": 2_000,
        },
        "offline-nine": {
            "star_n": 8,
            "steps": 256,
            "inexact_steps": 128,
            "encoded_steps": 64,
            "compare_pairs": 300,
            "query_pairs": 1_000,
        },
        "kv-live": {"ops_per_client": 2, "n_keys": 4, "rpc_round_trips": 50},
        "fabric-sweep": {
            "trials": 4,
            "chunk_size": 2,
            "max_steps": 12,
            "selftest_cells": 8,
        },
    },
}


def sizes_for(preset: str, workload: str) -> Dict[str, Any]:
    key = "kv-live" if workload.startswith("kv-live") else workload
    return dict(SIZES[preset][key])


def sequencer_graph(seed: int):
    """The 3/4/16 sequencer architecture; attachments drawn from *seed*.

    Returns ``(graph, cover)``: the sequencers are the vertex cover, so
    ``|VC| = 3`` and inline timestamps are ``2|VC|+2 = 8`` elements wide.
    """
    from repro.topology import generators

    graph, sequencers = generators.sequencer_architecture(
        N_SEQUENCERS, N_SERVERS, N_CLIENTS, rng=random.Random(seed)
    )
    return graph, tuple(sequencers)


def star_ops(seed: int, n: int, steps: int) -> Tuple[Any, List[tuple]]:
    """A star graph and a FIFO, fully delivered random op list over it."""
    from repro.core.random_executions import random_ops
    from repro.topology import generators

    graph = generators.star(n)
    ops = random_ops(
        graph, random.Random(seed), steps=steps, fifo=True, deliver_all=True
    )
    return graph, ops


def graph_ops(graph, seed: int, steps: int) -> List[tuple]:
    """A fully delivered random op list over an existing graph."""
    from repro.core.random_executions import random_ops

    return random_ops(graph, random.Random(seed), steps=steps, deliver_all=True)


def store_config(seed: int, sizes: Dict[str, Any]):
    from repro.applications.causal_kv import StoreConfig

    return StoreConfig(
        n_sequencers=N_SEQUENCERS,
        n_servers=N_SERVERS,
        n_clients=N_CLIENTS,
        ops_per_client=sizes["ops_per_client"],
        n_keys=sizes["n_keys"],
        seed=seed,
    )


def fabric_specs(seed: int, sizes: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Conformance-fuzzer cells: CPU-bound, a few trials each."""
    from repro.fabric.drivers import conformance_chunk_specs

    return conformance_chunk_specs(
        sizes["trials"],
        seed=seed,
        topologies=("star", "tree", "random"),
        max_steps=sizes["max_steps"],
        backend="auto",
        chunk_size=sizes["chunk_size"],
    )


def selftest_cells(seed: int, sizes: Dict[str, Any]) -> List[Dict[str, Any]]:
    """No-op cells: what is left is coordination cost."""
    from repro.fabric.drivers import selftest_specs

    return selftest_specs(sizes["selftest_cells"], seed=seed)


def sample_pairs(seed: int, ids: List[Any], n_pairs: int) -> List[Tuple[Any, Any]]:
    rng = random.Random(seed)
    m = len(ids)
    return [(ids[rng.randrange(m)], ids[rng.randrange(m)]) for _ in range(n_pairs)]
