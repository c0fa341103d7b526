"""Topology generators for the families used throughout the paper.

The paper's arguments feature the *star* graph (Sections 2-3), arbitrary
graphs with a known vertex cover (Section 4), graphs of vertex connectivity
>= 2 and == 1 (Lemmas 2.3, 2.4), and the sequencer-based client/server
architecture of Figure 4.  This module builds all of them, plus standard
families (clique, ring/cycle, path, tree, bipartite, Erdos-Renyi) used in the
benchmarks.

All generators return a :class:`~repro.topology.graph.CommunicationGraph`
whose vertices are ``0 .. n-1``.  Where a family has a canonical small vertex
cover, the convention for which vertices form it is documented per function.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.topology.graph import CommunicationGraph, Edge


def star(n: int) -> CommunicationGraph:
    """Star graph: vertex 0 is the central process, 1..n-1 are radial.

    ``{0}`` is a minimum vertex cover.  This is the topology of the paper's
    Sections 2 and 3.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return CommunicationGraph(n, [(0, i) for i in range(1, n)])


def clique(n: int) -> CommunicationGraph:
    """Complete graph.  Minimum vertex cover has n-1 vertices."""
    if n < 2:
        raise ValueError("a clique needs at least 2 vertices")
    return CommunicationGraph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def cycle(n: int) -> CommunicationGraph:
    """Cycle graph C_n (vertex connectivity 2, used for Lemma 2.3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return CommunicationGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> CommunicationGraph:
    """Path graph P_n (vertex connectivity 1)."""
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return CommunicationGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> CommunicationGraph:
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other.

    The smaller side is a minimum vertex cover — the natural client/server
    topology of the related-work discussion (Section 5).
    """
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return CommunicationGraph(
        a + b, [(i, a + j) for i in range(a) for j in range(b)]
    )


def double_star(left_leaves: int, right_leaves: int) -> CommunicationGraph:
    """Two adjacent hubs (vertices 0 and 1), each with its own leaves.

    ``{0, 1}`` is a minimum vertex cover of size 2; vertex connectivity is 1.
    A useful minimal example of a non-star graph with a tiny cover.
    """
    if left_leaves < 1 or right_leaves < 1:
        raise ValueError("each hub needs at least one leaf")
    n = 2 + left_leaves + right_leaves
    edges: List[Edge] = [(0, 1)]
    edges += [(0, 2 + i) for i in range(left_leaves)]
    edges += [(1, 2 + left_leaves + j) for j in range(right_leaves)]
    return CommunicationGraph(n, edges)


def random_tree(n: int, rng: random.Random) -> CommunicationGraph:
    """Uniform random labelled tree via a random Prufer-like attachment."""
    if n < 2:
        raise ValueError("a tree needs at least 2 vertices")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return CommunicationGraph(n, edges)


def erdos_renyi(
    n: int, p: float, rng: random.Random, ensure_connected: bool = True
) -> CommunicationGraph:
    """G(n, p) random graph.

    When *ensure_connected* is set, a random spanning-tree skeleton is added
    first so the result is always connected (the paper assumes processes can
    eventually influence each other).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    edges: List[Edge] = []
    if ensure_connected:
        edges.extend((rng.randrange(i), i) for i in range(1, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return CommunicationGraph(n, edges)


def theta_graph(path_lengths: Sequence[int]) -> CommunicationGraph:
    """Two terminals joined by >= 2 internally disjoint paths.

    With at least two paths the graph is 2-connected — a convenient
    non-clique, non-cycle instance for Lemma 2.3.  *path_lengths* gives the
    number of internal vertices on each path (0 means a direct edge; at most
    one direct edge is allowed in a simple graph).
    """
    if len(path_lengths) < 2:
        raise ValueError("a theta graph needs at least two paths")
    if sum(1 for k in path_lengths if k == 0) > 1:
        raise ValueError("at most one direct edge between the terminals")
    edges: List[Edge] = []
    next_vertex = 2  # 0 and 1 are the terminals
    for k in path_lengths:
        prev = 0
        for _ in range(k):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
        edges.append((prev, 1))
    return CommunicationGraph(next_vertex, edges)


def sequencer_architecture(
    n_sequencers: int,
    n_servers: int,
    n_clients: int,
    rng: Optional[random.Random] = None,
    attachments_per_node: int = 1,
) -> Tuple[CommunicationGraph, List[int]]:
    """The Figure-4 architecture: sequencers form the vertex cover.

    Vertices ``0 .. n_sequencers-1`` are sequencers, the next *n_servers*
    are servers, the rest are clients.  Sequencers are pairwise connected
    (they coordinate with each other); each server and each client attaches
    to *attachments_per_node* sequencers (the first deterministically if no
    RNG is given, random ones otherwise).  Servers and clients never talk to
    each other directly — all communication is mediated by sequencers, which
    is exactly what makes the sequencer set a vertex cover.

    Returns ``(graph, sequencer_ids)``.
    """
    if n_sequencers < 1:
        raise ValueError("need at least one sequencer")
    if attachments_per_node < 1 or attachments_per_node > n_sequencers:
        raise ValueError("attachments_per_node out of range")
    n = n_sequencers + n_servers + n_clients
    edges: List[Edge] = [
        (i, j) for i in range(n_sequencers) for j in range(i + 1, n_sequencers)
    ]
    for v in range(n_sequencers, n):
        if rng is None:
            chosen = [(v + k) % n_sequencers for k in range(attachments_per_node)]
        else:
            chosen = rng.sample(range(n_sequencers), attachments_per_node)
        edges.extend((s, v) for s in chosen)
    return CommunicationGraph(n, edges), list(range(n_sequencers))


def wheel(n: int) -> CommunicationGraph:
    """Wheel graph: vertex 0 is the hub, 1..n-1 form a cycle around it.

    Vertex connectivity is 3 for n >= 5 — another Lemma 2.3 instance.
    """
    if n < 4:
        raise ValueError("a wheel needs at least 4 vertices")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return CommunicationGraph(n, edges)


def caterpillar(spine: int, legs_per_vertex: int) -> CommunicationGraph:
    """A path (the spine) with *legs_per_vertex* leaves on each spine vertex.

    The spine is a vertex cover of size *spine*; connectivity is 1.
    """
    if spine < 1 or legs_per_vertex < 0:
        raise ValueError("invalid caterpillar parameters")
    edges: List[Edge] = [(i, i + 1) for i in range(spine - 1)]
    next_vertex = spine
    for s in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((s, next_vertex))
            next_vertex += 1
    return CommunicationGraph(max(next_vertex, 1), edges)


#: the named families of :func:`build_topology`: name -> (n, rng) -> graph
TOPOLOGY_FAMILIES: Dict[
    str, Callable[[int, random.Random], CommunicationGraph]
] = {
    "star": lambda n, rng: star(n),
    "cycle": lambda n, rng: cycle(n),
    "clique": lambda n, rng: clique(n),
    "path": lambda n, rng: path(n),
    "double-star": lambda n, rng: double_star(
        max(1, n // 2 - 1), max(1, n - n // 2 - 1)
    ),
    "tree": random_tree,
    "random": lambda n, rng: erdos_renyi(n, 0.2, rng),
}


def build_topology(name: str, n: int, seed: int) -> CommunicationGraph:
    """Construct one of the named topology families at size ~*n*."""
    if name not in TOPOLOGY_FAMILIES:
        raise ValueError(f"unknown topology {name!r}")
    return TOPOLOGY_FAMILIES[name](n, random.Random(seed))
