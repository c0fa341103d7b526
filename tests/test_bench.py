"""Per-cell sweep seeding: stability, independence, cross-process equality."""

import os
import random
import subprocess
import sys

from repro.bench import cell_seed


def test_cell_seed_is_stable_and_order_sensitive():
    assert cell_seed(0, "star", 8) == cell_seed(0, "star", 8)
    assert cell_seed(0, "star", 8) != cell_seed(0, "star", 9)
    assert cell_seed("a", "b") != cell_seed("b", "a")
    # usable as a Random seed, independent of hash randomization
    assert 0 <= cell_seed(1, "x") < 2**63
    r = random.Random(cell_seed(1, "x"))
    assert isinstance(r.random(), float)


def test_cell_seed_no_collisions_across_realistic_grid():
    """Every cell of a realistic sweep grid gets a distinct seed."""
    topologies = ["star", "cycle", "clique", "path", "double-star", "tree",
                  "random"]
    clocks = ["inline", "inline-star", "vector", "vector-sk", "lamport",
              "encoded", "cluster", "plausible"]
    seeds = {}
    for base in (0, 1):
        for topo in topologies:
            for n in (2, 4, 8, 16, 32, 64):
                for events in (5, 10, 20, 50, 100):
                    for clock in clocks:
                        for trial in range(5):
                            s = cell_seed(base, topo, n, events, clock, trial)
                            key = (base, topo, n, events, clock, trial)
                            assert s not in seeds, (
                                f"seed collision: {key} vs {seeds[s]}"
                            )
                            seeds[s] = key
    assert len(seeds) == 2 * 7 * 6 * 5 * 8 * 5


def test_cell_seed_reproduces_across_processes():
    """repr-based hashing must not depend on per-process hash randomization."""
    coords = [(0, "star", 8, "inline", t) for t in range(8)]
    parent = [cell_seed(*c) for c in coords]
    code = (
        "from repro.bench import cell_seed\n"
        f"print([cell_seed(*c) for c in {coords!r}])"
    )
    for hashseed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=hashseed,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            check=True, capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.strip() == repr(parent)
