#!/usr/bin/env python3
"""Scenario: the Figure-4 causal key-value store.

Clients and servers talk only through a handful of *sequencers*, which
therefore form a vertex cover of the communication graph: inline timestamps
need ``2·#sequencers + 2`` elements no matter how large the deployment
grows.  Bulk data can additionally bypass the sequencers (Figure 4's dashed
arrow) while only timestamp metadata flows through them.

The store is fully implemented: per-key primary serialization, dependency-
gated reads (Lazy-Replication style), replication, and a post-hoc causal
consistency audit.  ``run_store`` runs the roles of ``repro kv-live`` on
virtual time, so every run here is deterministic.

Run:  python examples/sequencer_kv_store.py
"""

from repro.applications.causal_kv import (
    StoreConfig,
    run_store,
    verify_causal_reads,
)
from repro.analysis.reports import format_table


def main() -> None:
    rows = []
    for n_clients in (4, 8, 16, 32):
        cfg = StoreConfig(
            n_sequencers=2,
            n_servers=3,
            n_clients=n_clients,
            n_keys=5,
            ops_per_client=8,
            write_fraction=0.5,
            seed=n_clients,
        )
        run = run_store(cfg)
        violations = verify_causal_reads(run)
        rows.append(
            [
                cfg.total_processes(),
                n_clients,
                run.completed_operations,
                run.inline_max_elements,
                run.vector_elements,
                "yes" if not violations else f"NO ({len(violations)})",
            ]
        )

    print(
        format_table(
            ["processes", "clients", "ops", "inline ts elements",
             "vector ts elements", "causally consistent"],
            rows,
            title="Figure-4 store: timestamp size vs deployment size",
        )
    )

    # traffic story for one deployment
    cfg = StoreConfig(n_sequencers=2, n_servers=4, n_clients=12,
                      ops_per_client=8, seed=1)
    run = run_store(cfg)
    t = run.traffic
    print("\nsequencer hops for the 18-process deployment:")
    for frame in t.data:
        print(f"  {frame:7} {t.data[frame]:4} data + {t.meta[frame]:4} metadata")
    print(f"\nevery hop has a sequencer end; routing data direct (Fig. 4) "
          f"would take the {t.data_hops} data hops off the sequencers and "
          f"leave them the {t.meta_hops} metadata hops.")
    print("inline timestamps stay at "
          f"{run.inline_max_elements} elements while the vector clock would "
          f"need {run.vector_elements}.")


if __name__ == "__main__":
    main()
