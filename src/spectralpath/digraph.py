"""Directed graphs read off from matrix nonzero patterns.

The graph of a matrix has an arc i -> j exactly when the (i, j) entry is
structurally nonzero.  The structural questions asked downstream are: is the
undirected pattern a path, what is the directed distance between two
vertices, and does some relabeling expose a lower Hessenberg pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix

__all__ = [
    "Digraph",
    "gamma",
    "directed_distance",
    "shortest_path",
    "bidirected_path_endpoints",
    "hessenberg_ordering",
    "is_irreducible_tridiagonal",
    "is_hessenberg",
    "OrderingVerificationError",
]


class OrderingVerificationError(RuntimeError):
    """A constructed vertex ordering failed its own structural check."""


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    out_adj: tuple

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        adj = [set() for _ in range(n)]
        for i, j in arcs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i}, {j}) outside vertex range 0..{n - 1}")
            adj[i].add(j)
        return cls(n, tuple(tuple(sorted(s)) for s in adj))

    def has_arc(self, i: int, j: int) -> bool:
        return j in self.out_adj[i]

    def arcs(self):
        for i in range(self.n):
            for j in self.out_adj[i]:
                yield (i, j)

    def arc_count(self) -> int:
        return sum(len(s) for s in self.out_adj)


def gamma(A, tol: Tolerance = DEFAULT_TOL, with_loops: bool = False) -> Digraph:
    """Digraph of the nonzero pattern of `A`.

    Arc i -> j is present when |A[i, j]| > zero_tol and i != j; with
    `with_loops` the diagonal contributes self-loops as well.
    """
    mask = np.abs(as_matrix(A)) > tol.zero_tol
    if not with_loops:
        np.fill_diagonal(mask, False)
    return Digraph(len(mask), _out_lists(mask))


def _out_lists(mask: np.ndarray) -> tuple:
    """Ascending column indices of the True entries of each row of `mask`."""
    rows, cols = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(len(mask) + 1)).tolist()
    cols = cols.tolist()
    # From a list, not a generator: CPython resizes a tuple built from a
    # generator, and once freed it sits on the free list of its final size.
    return tuple([tuple(cols[a:b]) for a, b in zip(ends, ends[1:])])


def _bfs(G: Digraph, s: int):
    """Parents and distances from `s`; neighbors expand in ascending order."""
    dist = [-1] * G.n
    parent = [-1] * G.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in G.out_adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    return dist, parent


def directed_distance(G: Digraph, s: int, t: int):
    """Length of a shortest directed path s -> t, or None if unreachable."""
    if not (0 <= s < G.n and 0 <= t < G.n):
        raise ValueError(f"vertices ({s}, {t}) outside range 0..{G.n - 1}")
    dist, _ = _bfs(G, s)
    return dist[t] if dist[t] >= 0 else None


def shortest_path(G: Digraph, s: int, t: int):
    """One shortest directed path from s to t as a vertex list, or None.

    Deterministic: breadth-first search expands neighbors in ascending
    order, so ties always resolve the same way.
    """
    if not (0 <= s < G.n and 0 <= t < G.n):
        raise ValueError(f"vertices ({s}, {t}) outside range 0..{G.n - 1}")
    dist, parent = _bfs(G, s)
    if dist[t] < 0:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


def bidirected_path_endpoints(G: Digraph):
    """Vertex ordering of `G` as a bidirected path, or None.

    Succeeds when every arc is matched by its reverse, self-loops aside,
    and the underlying undirected graph is a single path visiting every
    vertex.  The ordering starts at the smaller-labeled endpoint.  A single
    vertex with no arcs yields the trivial ordering (0,).
    """
    n = G.n
    nbrs = [set(G.out_adj[i]) - {i} for i in range(n)]
    for i in range(n):
        for j in nbrs[i]:
            if i not in nbrs[j]:
                return None  # one-way arc: not bidirected
    if n == 1:
        return (0,)
    degrees = [len(s) for s in nbrs]
    ends = [v for v in range(n) if degrees[v] == 1]
    if len(ends) != 2 or any(degrees[v] != 2 for v in range(n) if v not in ends):
        return None
    start = min(ends)
    order = [start]
    prev = -1
    while len(order) < n:
        nxt = [w for w in nbrs[order[-1]] if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    # degree counts alone admit a path plus disjoint cycles
    if len(set(order)) != n:
        return None
    return tuple(order)


def hessenberg_ordering(G: Digraph, s: int, t: int):
    """Relabeling that exposes a lower Hessenberg pattern, or None.

    If the directed distance from s to t equals n-1, the reversed shortest
    path gives an ordering x with x[0] = t and x[n-1] = s under which the
    matrix pattern is zero below the subdiagonal and nonzero on it.  The
    ordering is verified before being returned.
    """
    n = G.n
    path = shortest_path(G, s, t)
    if path is None or len(path) != n:
        return None
    order = tuple(path[::-1])
    for i in range(n):
        for j in range(n):
            if i - j == 1 and not G.has_arc(order[i], order[j]):
                raise OrderingVerificationError(
                    f"expected arc {order[i]} -> {order[j]} missing from shortest path"
                )
            if i - j > 1 and G.has_arc(order[i], order[j]):
                raise OrderingVerificationError(
                    f"arc {order[i]} -> {order[j]} shortcuts a shortest path"
                )
    return order


def is_irreducible_tridiagonal(A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when `A` is tridiagonal with every sub- and superdiagonal entry nonzero.

    A 1x1 matrix counts (empty off-diagonals).
    """
    A = as_matrix(A)
    return is_hessenberg(A, tol) and is_hessenberg(A.T, tol)


def is_hessenberg(A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when `A` is zero below the subdiagonal and nonzero on it."""
    nz = np.abs(as_matrix(A)) > tol.zero_tol
    return bool(not np.tril(nz, -2).any() and np.diagonal(nz, -1).all())
