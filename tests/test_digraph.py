"""Pattern graph checks: masks, distances, path recognition."""

from collections import deque

import numpy as np
import pytest

from spectralpath.digraph import (
    _bfs,
    _out_lists,
    _path_order,
    bidirected_path_endpoints,
    gamma,
)
from spectralpath.linalg import DEFAULT_TOL, Tolerance


def reference_path_order(mask):
    """Ordering of one mask as a bidirected path, or None: a walk over Python sets.

    Independent of the stacked test in `bidirected_path_endpoints`; the
    diagonal is ignored and the walk starts at the smaller-labeled endpoint.
    """
    n = len(mask)
    nbrs = [set(np.flatnonzero(mask[i]).tolist()) - {i} for i in range(n)]
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
    order = [min(ends)]
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


def mask_of(n, arcs):
    mask = np.zeros((n, n), dtype=bool)
    for i, j in arcs:
        mask[i, j] = True
    return mask


def path_order(n, arcs):
    (order,) = bidirected_path_endpoints(mask_of(n, arcs)[None])
    assert order == reference_path_order(mask_of(n, arcs))
    return order


def test_gamma_ignores_diagonal_by_default():
    mask = gamma(np.array([[5.0, 1.0], [0.0, 2.0]]))
    assert mask.dtype == bool
    assert mask.tolist() == [[False, True], [False, False]]


def test_gamma_threshold():
    A = np.array([[0.0, 1e-12], [1e-9, 0.0]])
    assert np.argwhere(gamma(A, Tolerance(zero_tol=1e-10))).tolist() == [[1, 0]]


def test_gamma_matches_row_by_row_reference():
    # empty rows, full rows and a row holding only the diagonal; one matrix and a stack
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 25):
        stack = rng.choice([0.0, 1e-12, 0.5, -2.0], size=(3, n, n))
        stack[:, n // 2, :] = 0.0
        stack[:, 0, :] = 1.0
        ref = np.array([[[abs(a) > DEFAULT_TOL.zero_tol and i != j for j, a in enumerate(row)]
                         for i, row in enumerate(A)] for A in stack])
        assert np.array_equal(gamma(stack), ref)
        assert np.array_equal(gamma(stack[1].tolist()), ref[1])


def test_gamma_rejects_non_finite_and_non_square():
    for bad in (np.array([[0.0, np.nan], [1.0, 0.0]]), np.full((2, 3, 3), np.inf), np.zeros((2, 3))):
        with pytest.raises(ValueError):
            gamma(bad)


def test_directed_distance_and_unreachable():
    # the BFS behind MatrixAnalysis.distance; -1 marks an unreachable vertex
    mask = mask_of(3, [(0, 1), (1, 2)])
    assert _bfs(_out_lists(mask), 0, 2)[0][2] == 2
    assert _bfs(_out_lists(mask), 2, 0)[0][0] == -1
    assert _bfs(_out_lists(mask), 1, 1)[0][1] == 0
    with pytest.raises(ValueError):
        _bfs(_out_lists(mask), 0, 3)


def test_distance_matches_boolean_walk_powers():
    """BFS distances agree with the first walk length whose power hits (s, t)."""
    rng = np.random.default_rng(31337)
    for n in (2, 4, 6, 9):
        for _ in range(10):
            M = (rng.random((n, n)) < 0.3)
            np.fill_diagonal(M, False)
            reach = np.eye(n, dtype=bool)
            power = np.eye(n, dtype=bool)
            first = np.full((n, n), -1)
            np.fill_diagonal(first, 0)
            for step in range(1, n):
                power = power @ M
                newly = power & ~reach
                first[newly] = step
                reach |= power
            for s in range(n):
                for t in range(n):
                    assert _bfs(_out_lists(M), s, t)[0][t] == first[s, t]


def test_bidirected_path_recognition_with_relabeling():
    # arcs 0<->2 and 2<->1: the path is 0, 2, 1
    assert path_order(3, [(0, 2), (2, 0), (2, 1), (1, 2)]) == (0, 2, 1)


def test_bidirected_path_rejects_one_way_arcs():
    assert path_order(3, [(0, 1), (1, 0), (1, 2)]) is None


def test_bidirected_path_rejects_cycles_and_forks():
    assert path_order(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]) is None
    assert path_order(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]) is None


def test_bidirected_path_rejects_path_plus_cycle():
    # degree counts alone would pass: component 0-1 plus triangle 2-3-4
    arcs = [(0, 1), (1, 0)]
    for a, b in [(2, 3), (3, 4), (4, 2)]:
        arcs += [(a, b), (b, a)]
    assert path_order(5, arcs) is None


def test_bidirected_path_single_vertex_and_loops():
    assert path_order(1, []) == (0,)
    assert path_order(1, [(0, 0)]) == (0,)
    assert path_order(2, [(0, 1), (1, 0), (0, 0)]) == (0, 1)
    assert bidirected_path_endpoints(np.zeros((0, 1, 1), dtype=bool)) == []


def test_bidirected_path_starts_at_smaller_endpoint():
    assert path_order(3, [(2, 1), (1, 2), (1, 0), (0, 1)]) == (0, 1, 2)


def random_pattern(rng, n):
    """A seeded mask: a relabeled path, a path plus a cycle, a star, a one-way
    arc or a random pattern, with a few diagonal entries set."""
    perm = rng.permutation(n).tolist()
    kind = int(rng.integers(5))
    edges = [(perm[a], perm[a + 1]) for a in range(n - 1)]
    if kind == 1 and n >= 5:  # path on perm[:cut] plus a cycle on the rest
        cut = int(rng.integers(2, n - 2))
        edges = edges[: cut - 1] + edges[cut:] + [(perm[cut], perm[-1])]
    elif kind == 2:  # a star around perm[0]
        edges = [(perm[0], v) for v in perm[1:]]
    mask = mask_of(n, edges + [(b, a) for a, b in edges])
    if kind == 3 and edges:  # one arc of the path made one-way
        a, b = edges[int(rng.integers(len(edges)))]
        mask[a, b] = False
    if kind == 4:
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.5)
    mask[np.diag_indices(n)] = rng.random(n) < 0.3
    return mask


def test_stacked_path_test_matches_set_walk():
    rng = np.random.default_rng(20261018)
    found = 0
    for n in range(1, 10):
        for _ in range(40):
            stack = np.array([random_pattern(rng, n) for _ in range(int(rng.integers(1, 5)))])
            got = bidirected_path_endpoints(stack)
            assert got == [reference_path_order(mask) for mask in stack], stack
            found += sum(order is not None for order in got)
    assert found >= 100, found


def bfs_path_order(mask):
    """Ordering of one mask with a clear diagonal as a bidirected path, or None, by brute force.

    A symmetric pattern is a path through every vertex exactly when it has
    n - 1 edges, no vertex of degree above 2, and a breadth-first search
    from an endpoint reaches every vertex; the distances give the order.
    """
    n = len(mask)
    if n == 1:
        return (0,)
    deg = mask.sum(axis=1)
    ends = np.flatnonzero(deg == 1).tolist()
    if (mask != mask.T).any() or mask.sum() != 2 * (n - 1) or deg.max() > 2 or not ends:
        return None
    dist = {ends[0]: 0}
    queue = deque(ends[:1])
    while queue:
        v = queue.popleft()
        for w in np.flatnonzero(mask[v]).tolist():
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(sorted(dist, key=dist.get)) if len(dist) == n else None


def seeded_mask(rng, n, kind):
    """A relabeled path, tree, path plus a disjoint cycle (n >= 4), path with one arc removed, or empty mask."""
    perm = rng.permutation(n).tolist()
    if kind == "tree":
        edges = [(perm[v], perm[int(rng.integers(v))]) for v in range(1, n)]
    elif kind == "path_and_cycle":
        cut = int(rng.integers(1, n - 2))  # a path on perm[:cut], a cycle on the other n - cut >= 3
        edges = [(perm[a], perm[a + 1]) for a in range(n - 1) if a != cut - 1] + [(perm[cut], perm[-1])]
    elif kind == "empty":
        edges = []
    else:
        edges = [(perm[a], perm[a + 1]) for a in range(n - 1)]
    mask = mask_of(n, edges + [(b, a) for a, b in edges])
    if kind == "one_arc_removed" and edges:
        a, b = edges[int(rng.integers(len(edges)))]
        mask[a, b] = False
    return mask


def test_path_order_matches_stacked_route_and_bfs():
    rng = np.random.default_rng(20261019)
    found = {}
    for n in range(1, 13):
        for kind in ("path", "tree", "path_and_cycle", "one_arc_removed", "empty"):
            if kind == "path_and_cycle" and n < 4:
                continue
            for _ in range(8):
                mask = seeded_mask(rng, n, kind)
                got = _path_order(mask, _out_lists(mask))
                assert got == bidirected_path_endpoints(mask[None])[0] == bfs_path_order(mask), (kind, mask)
                found[kind] = found.get(kind, 0) + (got is not None)
    # paths are found at every order; beyond n = 1 a cycle, a one-way arc or no arc never passes
    assert found["path"] == 12 * 8 and found["path_and_cycle"] == 0
    assert found["one_arc_removed"] == found["empty"] == 8
    assert 8 < found["tree"] < 12 * 8, found
