"""Communication topologies.

The paper's system model is an asynchronous message-passing system whose
channels form an undirected *communication graph*: process ``i`` may exchange
messages with process ``j`` iff ``{i, j}`` is an edge.  The inline algorithm
of Section 4 exploits a vertex cover of this graph.

:class:`CommunicationGraph` is a small, dependency-free undirected simple
graph over vertices ``0 .. n-1``.  It is immutable after construction so that
executions, simulators and clock algorithms can safely share one instance.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

Edge = Tuple[int, int]


class CommunicationGraph:
    """An undirected simple graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    n_vertices:
        Number of processes.
    edges:
        Iterable of ``(u, v)`` pairs.  Order within a pair and duplicate
        pairs are ignored; self-loops are rejected.
    """

    def __init__(self, n_vertices: int, edges: Iterable[Edge]) -> None:
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self._n = n_vertices
        adjacency: List[Set[int]] = [set() for _ in range(n_vertices)]
        edge_set: Set[FrozenSet[int]] = set()
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range [0,{n_vertices})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            adjacency[u].add(v)
            adjacency[v].add(u)
            edge_set.add(frozenset((u, v)))
        self._adj: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(s) for s in adjacency
        )
        self._edges: Tuple[Edge, ...] = tuple(
            sorted((min(e), max(e)) for e in edge_set)
        )

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as sorted ``(min, max)`` pairs, in lexicographic order."""
        return self._edges

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self._n else False

    def neighbors(self, u: int) -> FrozenSet[int]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    # ------------------------------------------------------------------
    def is_vertex_cover(self, cover: Iterable[int]) -> bool:
        """Whether every edge has at least one endpoint in *cover*."""
        cset = set(cover)
        return all(u in cset or v in cset for u, v in self._edges)

    def connected_components(self, ignore: Iterable[int] = ()) -> List[Set[int]]:
        """Connected components, optionally ignoring some vertices entirely."""
        skip = set(ignore)
        seen: Set[int] = set(skip)
        comps: List[Set[int]] = []
        for start in range(self._n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        stack.append(v)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        """Whether the graph (all ``n`` vertices) is connected."""
        comps = self.connected_components()
        return len(comps) == 1

    def bfs_distances(self, source: int, ignore: Iterable[int] = ()) -> List[int]:
        """BFS hop distances from *source*; ``-1`` for unreachable vertices."""
        skip = set(ignore)
        dist = [-1] * self._n
        if source in skip:
            return dist
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in self._adj[u]:
                if v not in skip and dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def diameter(self, ignore: Iterable[int] = ()) -> int:
        """Largest finite hop distance among non-ignored vertices.

        Raises ``ValueError`` if the non-ignored part is disconnected.
        """
        skip = set(ignore)
        verts = [v for v in range(self._n) if v not in skip]
        best = 0
        for s in verts:
            dist = self.bfs_distances(s, ignore=skip)
            for v in verts:
                if dist[v] == -1:
                    raise ValueError("graph (minus ignored vertices) is disconnected")
                best = max(best, dist[v])
        return best

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"CommunicationGraph(n={self._n}, edges={len(self._edges)})"
