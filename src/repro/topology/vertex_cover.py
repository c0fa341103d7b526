"""Vertex-cover computation.

The size of the paper's inline timestamps is ``2*|VC| + 2`` where ``VC`` is
*any* vertex cover of the communication graph (Theorem 4.2), so the smaller
the cover we find, the smaller the timestamps.  Minimum vertex cover is
NP-hard in general; we provide:

- :func:`exact_minimum_cover` — branch-and-bound with degree-1/degree-0
  reductions, exact for the graph sizes used in our experiments (works
  comfortably up to a few hundred vertices on sparse graphs);
- :func:`matching_cover` — the classic maximal-matching 2-approximation;
- :func:`greedy_degree_cover` — highest-degree-first heuristic (no worst-case
  guarantee but often small in practice);
- :func:`best_cover` — run all of the above within a node budget and return
  the smallest result.

All functions return a sorted list of vertex ids that is guaranteed to be a
vertex cover (each function validates its own output).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.topology.graph import CommunicationGraph

#: memo for :func:`best_cover` — sweeps construct ``CoverInlineClock(graph)``
#: for the same handful of (immutable, hashable) graphs over and over, and
#: the exact branch-and-bound is by far the most expensive part of that.
_best_cover_memo: Dict[Tuple[CommunicationGraph, int], Tuple[int, ...]] = {}


def _check(graph: CommunicationGraph, cover: Sequence[int]) -> List[int]:
    out = sorted(set(cover))
    if not graph.is_vertex_cover(out):
        raise AssertionError("internal error: produced set is not a cover")
    return out


def matching_cover(graph: CommunicationGraph) -> List[int]:
    """Maximal-matching 2-approximation.

    Greedily picks edges with both endpoints unmatched and adds both
    endpoints to the cover.  Guaranteed within a factor 2 of optimal.
    """
    matched: Set[int] = set()
    cover: List[int] = []
    for u, v in graph.edges:
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            cover.extend((u, v))
    return _check(graph, cover)


def greedy_degree_cover(graph: CommunicationGraph) -> List[int]:
    """Repeatedly take the vertex covering the most uncovered edges."""
    remaining: Set[Tuple[int, int]] = set(graph.edges)
    degree = [0] * graph.n_vertices
    for u, v in remaining:
        degree[u] += 1
        degree[v] += 1
    cover: List[int] = []
    while remaining:
        best = max(range(graph.n_vertices), key=lambda w: degree[w])
        if degree[best] == 0:  # pragma: no cover - defensive
            break
        cover.append(best)
        gone = [e for e in remaining if best in e]
        for u, v in gone:
            remaining.discard((u, v))
            degree[u] -= 1
            degree[v] -= 1
    return _check(graph, cover)


def _reduce(
    adj: List[Set[int]], cover: Set[int]
) -> None:
    """Apply degree-1 reduction exhaustively (in place).

    If a vertex has exactly one neighbor, its neighbor can always be taken
    into the cover without loss of optimality.
    """
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            if len(adj[v]) == 1:
                (u,) = adj[v]
                cover.add(u)
                for w in list(adj[u]):
                    adj[w].discard(u)
                adj[u].clear()
                changed = True


def exact_minimum_cover(
    graph: CommunicationGraph, node_budget: int = 2_000_000
) -> List[int]:
    """Exact minimum vertex cover by branch-and-bound.

    Branches on a vertex of maximum remaining degree: either it is in the
    cover, or all of its neighbors are.  Degree-1 reductions are applied at
    every node.  *node_budget* bounds the search-tree size; exceeding it
    raises ``RuntimeError`` (callers wanting a fallback should use
    :func:`best_cover`).
    """
    best: List[Set[int]] = [set(matching_cover(graph))]
    upper = [len(best[0])]
    nodes = [0]

    def recurse(adj: List[Set[int]], cover: Set[int]) -> None:
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise RuntimeError("exact vertex-cover search exceeded node budget")
        _reduce(adj, cover)
        if len(cover) >= upper[0]:
            return
        # lower bound: matching on the remaining graph
        remaining_edges = [
            (u, v) for u in range(len(adj)) for v in adj[u] if u < v
        ]
        if not remaining_edges:
            if len(cover) < len(best[0]):
                best[0] = set(cover)
                upper[0] = len(cover)
            return
        matched: Set[int] = set()
        lb = 0
        for u, v in remaining_edges:
            if u not in matched and v not in matched:
                matched.add(u)
                matched.add(v)
                lb += 1
        if len(cover) + lb >= upper[0]:
            return
        # branch vertex: max degree
        pivot = max(range(len(adj)), key=lambda w: len(adj[w]))
        neighbors = set(adj[pivot])

        # branch 1: pivot in cover
        adj1 = [set(s) for s in adj]
        for w in neighbors:
            adj1[w].discard(pivot)
        adj1[pivot].clear()
        recurse(adj1, cover | {pivot})

        # branch 2: all neighbors of pivot in cover
        adj2 = [set(s) for s in adj]
        for w in neighbors:
            for x in list(adj2[w]):
                adj2[x].discard(w)
            adj2[w].clear()
        recurse(adj2, cover | neighbors)

    adj0 = [set(graph.neighbors(v)) for v in range(graph.n_vertices)]
    recurse(adj0, set())
    return _check(graph, sorted(best[0]))


def best_cover(graph: CommunicationGraph, node_budget: int = 200_000) -> List[int]:
    """Smallest cover obtainable: exact if affordable, else best heuristic.

    Results are memoized per ``(graph, node_budget)`` — graphs are immutable
    and hashable, and the computation is deterministic.  Each call returns a
    fresh list, so callers may mutate their copy freely.
    """
    key = (graph, node_budget)
    hit = _best_cover_memo.get(key)
    if hit is None:
        candidates = [matching_cover(graph), greedy_degree_cover(graph)]
        try:
            candidates.append(
                exact_minimum_cover(graph, node_budget=node_budget)
            )
        except RuntimeError:
            pass
        hit = tuple(min(candidates, key=len))
        _best_cover_memo[key] = hit
    return list(hit)
