"""Pattern graphs of matrices, as boolean masks.

The pattern graph of a matrix has an arc i -> j exactly when the (i, j)
entry is structurally nonzero and i != j.  `gamma` is the one place that
decides structural nonzeros; everything here and downstream reads its
mask.  The structural questions asked of it are: is the undirected pattern
a path, and what is the directed distance between two vertices.  One
breadth-first search, `_bfs`, answers both and gives the symmetrizer search
its spanning forest.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance


def gamma(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pattern graph of `A` as a boolean mask: |A[i, j]| > zero_tol and i != j.

    `A` is one square matrix or an (m, n, n) stack of them; the mask has the
    same shape.  Raises ValueError on any other shape or a non-finite entry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must all be finite")
    mask = np.abs(A) > tol.zero_tol
    idx = np.arange(A.shape[-1])
    mask[..., idx, idx] = False
    return mask


def _out_lists(mask: np.ndarray) -> tuple:
    """Ascending column indices of the True entries of each row of `mask`."""
    rows, cols = np.nonzero(mask)
    ends = np.searchsorted(rows, np.arange(len(mask) + 1)).tolist()
    cols = cols.tolist()
    # From a list, not a generator: CPython resizes a tuple built from a
    # generator, and once freed it sits on the free list of its final size.
    return tuple([tuple(cols[a:b]) for a, b in zip(ends, ends[1:])])


def _bfs(adj: tuple, roots):
    """Breadth-first forest over the out-lists `adj`: each root not yet reached starts a tree.

    Returns (order, dist, parent): the vertices in the order reached, and per
    vertex its distance from the root of its tree and its parent, -1 where
    there is none.  Neighbours are visited in ascending order.
    """
    n = len(adj)
    dist = [-1] * n
    parent = [-1] * n
    order = []
    for root in roots:
        if dist[root] >= 0:
            continue
        dist[root] = 0
        queue = [root]
        for v in queue:  # first in, first out: the loop reaches every vertex appended
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        order += queue
    return order, dist, parent


def bidirected_path_endpoints(masks) -> list:
    """Vertex ordering of each mask of an (m, n, n) stack as a bidirected path, or None.

    A mask qualifies when it is symmetric, the diagonal aside, and its
    undirected graph is a single path through every vertex.  One array pass
    keeps the masks with two vertices of degree 1 and every other of
    degree 2; `_path_order` then tests each survivor.  For n = 1 every
    ordering is (0,).
    """
    masks = np.array(masks, dtype=bool)  # a copy: its diagonals are cleared
    m, n = masks.shape[0], masks.shape[-1]
    if n == 1:
        return [(0,)] * m
    idx = np.arange(n)
    masks[:, idx, idx] = False
    deg = masks.sum(axis=2)
    keep = (
        (masks == masks.transpose(0, 2, 1)).all(axis=(1, 2))
        & ((deg == 1).sum(axis=1) == 2)
        & ((deg == 2).sum(axis=1) == n - 2)
    )
    orders = [None] * m
    for g in np.flatnonzero(keep).tolist():
        orders[g] = _path_order(masks[g], _out_lists(masks[g]))
    return orders


def _path_order(mask: np.ndarray, adj: tuple):
    """Vertex ordering of one mask with a clear diagonal as a bidirected path, or None.

    The lengths of the out-lists `adj` are the degrees of a symmetric `mask`.
    Degree counts also admit a path plus disjoint cycles, so the search from
    the smaller-labelled endpoint must reach every vertex.
    """
    n = len(adj)
    if n == 1:
        return (0,)
    deg = list(map(len, adj))
    if deg.count(1) != 2 or deg.count(2) != n - 2 or not (mask == mask.T).all():
        return None
    order = _bfs(adj, (deg.index(1),))[0]
    return tuple(order) if len(order) == n else None
