"""Pattern digraph checks: arcs, distances, path recognition, relabelings."""

import numpy as np
import pytest

from spectralpath.digraph import (
    Digraph,
    bidirected_path_endpoints,
    directed_distance,
    gamma,
    hessenberg_ordering,
    is_hessenberg,
    is_irreducible_tridiagonal,
    shortest_path,
)
from spectralpath.linalg import DEFAULT_TOL, Tolerance


def test_gamma_ignores_diagonal_by_default():
    G = gamma(np.array([[5.0, 1.0], [0.0, 2.0]]))
    assert list(G.arcs()) == [(0, 1)]
    G_loops = gamma(np.array([[5.0, 1.0], [0.0, 2.0]]), with_loops=True)
    assert list(G_loops.arcs()) == [(0, 0), (0, 1), (1, 1)]


def test_gamma_threshold():
    A = np.array([[0.0, 1e-12], [1e-9, 0.0]])
    G = gamma(A, Tolerance(zero_tol=1e-10))
    assert list(G.arcs()) == [(1, 0)]


def test_gamma_matches_row_by_row_reference():
    # empty rows, full rows and a row holding only the diagonal
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 25):
        A = rng.choice([0.0, 1e-12, 0.5, -2.0], size=(n, n))
        A[n // 2, :] = 0.0
        A[0, :] = 1.0
        for with_loops in (False, True):
            mask = np.abs(A) > DEFAULT_TOL.zero_tol
            if not with_loops:
                np.fill_diagonal(mask, False)
            ref = Digraph(n, tuple(tuple(np.flatnonzero(mask[i]).tolist()) for i in range(n)))
            G = gamma(A, with_loops=with_loops)
            assert G == ref
            assert all(type(j) is int for row in G.out_adj for j in row)


def test_from_arcs_validates_range():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 3)])
    with pytest.raises(ValueError):
        Digraph.from_arcs(0, [])


def test_directed_distance_and_unreachable():
    G = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert directed_distance(G, 0, 2) == 2
    assert directed_distance(G, 2, 0) is None
    assert directed_distance(G, 1, 1) == 0


def test_shortest_path_is_deterministic():
    # two shortest routes 0-1-3 and 0-2-3; ascending expansion picks vertex 1
    G = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(G, 0, 3) == [0, 1, 3]
    assert shortest_path(G, 3, 0) is None


def test_distance_matches_boolean_walk_powers():
    """BFS distances agree with the first walk length whose power hits (s, t)."""
    rng = np.random.default_rng(31337)
    for n in (2, 4, 6, 9):
        for _ in range(10):
            M = (rng.random((n, n)) < 0.3)
            np.fill_diagonal(M, False)
            G = Digraph.from_arcs(n, [tuple(a) for a in np.argwhere(M)])
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
                    expect = int(first[s, t]) if first[s, t] >= 0 else None
                    assert directed_distance(G, s, t) == expect


def test_bidirected_path_recognition_with_relabeling():
    # arcs 0<->2 and 2<->1: the path is 0, 2, 1
    G = Digraph.from_arcs(3, [(0, 2), (2, 0), (2, 1), (1, 2)])
    assert bidirected_path_endpoints(G) == (0, 2, 1)


def test_bidirected_path_rejects_one_way_arcs():
    G = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    assert bidirected_path_endpoints(G) is None


def test_bidirected_path_rejects_cycles_and_forks():
    cyc = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
    assert bidirected_path_endpoints(cyc) is None
    star = Digraph.from_arcs(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
    assert bidirected_path_endpoints(star) is None


def test_bidirected_path_rejects_path_plus_cycle():
    # degree counts alone would pass: component 0-1 plus triangle 2-3-4
    arcs = [(0, 1), (1, 0)]
    for a, b in [(2, 3), (3, 4), (4, 2)]:
        arcs += [(a, b), (b, a)]
    G = Digraph.from_arcs(5, arcs)
    assert bidirected_path_endpoints(G) is None


def test_bidirected_path_single_vertex_and_loops():
    assert bidirected_path_endpoints(Digraph.from_arcs(1, [])) == (0,)
    assert bidirected_path_endpoints(Digraph.from_arcs(1, [(0, 0)])) == (0,)
    two = Digraph.from_arcs(2, [(0, 1), (1, 0), (0, 0)])
    assert bidirected_path_endpoints(two) == (0, 1)


def test_bidirected_path_starts_at_smaller_endpoint():
    G = Digraph.from_arcs(3, [(2, 1), (1, 2), (1, 0), (0, 1)])
    assert bidirected_path_endpoints(G) == (0, 1, 2)


def test_hessenberg_ordering_round_trip():
    """Relabeling by the ordering produces a matrix passing is_hessenberg."""
    rng = np.random.default_rng(424242)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            # random unreduced lower Hessenberg pattern
            A = np.zeros((n, n))
            for i in range(1, n):
                A[i, i - 1] = rng.uniform(0.5, 2.0)
            upper = rng.random((n, n)) < 0.5
            for i in range(n):
                for j in range(i, n):
                    if upper[i, j]:
                        A[i, j] = rng.uniform(0.5, 2.0)
            perm = rng.permutation(n)
            B = A[np.ix_(perm, perm)]
            G = gamma(B)
            s = int(np.where(perm == n - 1)[0][0])
            t = int(np.where(perm == 0)[0][0])
            order = hessenberg_ordering(G, s, t)
            assert order is not None
            C = B[np.ix_(order, order)]
            assert is_hessenberg(C)


def test_hessenberg_ordering_requires_full_distance():
    G = Digraph.from_arcs(3, [(0, 1), (0, 2)])
    assert hessenberg_ordering(G, 0, 2) is None  # distance 1, not n-1


def test_irreducible_tridiagonal_predicate():
    assert is_irreducible_tridiagonal(np.array([[1.0]]))
    good = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 4.0], [0.0, 5.0, 6.0]])
    assert is_irreducible_tridiagonal(good)
    broken = good.copy()
    broken[1, 2] = 0.0
    assert not is_irreducible_tridiagonal(broken)
    corner = good.copy()
    corner[0, 2] = 1.0
    assert not is_irreducible_tridiagonal(corner)


def test_hessenberg_predicate():
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 7.0, 8.0]])
    assert is_hessenberg(A)
    A[2, 0] = 0.5
    assert not is_hessenberg(A)
    A[2, 0] = 0.0
    A[1, 0] = 0.0  # reduced subdiagonal disqualifies
    assert not is_hessenberg(A)


def test_band_predicates_match_entrywise_definition():
    """Seeded banded matrices with stray entries, zero-tol entries of either sign included."""
    rng = np.random.default_rng(2718)
    z = DEFAULT_TOL.zero_tol
    seen = set()
    for _ in range(600):
        n = int(rng.integers(1, 8))
        i, j = np.indices((n, n))
        A = np.where(np.abs(i - j) <= 1, rng.uniform(0.1, 2.0, size=(n, n)), 0.0)
        A[rng.random((n, n)) < 0.08] = rng.choice([0.0, z, -z, 2 * z, -2 * z, 1.0])
        nz = np.abs(A) > z
        tri = not nz[np.abs(i - j) > 1].any() and all(
            nz[k, k + 1] and nz[k + 1, k] for k in range(n - 1)
        )
        hess = not nz[i - j > 1].any() and all(nz[k, k - 1] for k in range(1, n))
        assert is_irreducible_tridiagonal(A) is tri
        assert is_hessenberg(A) is hess
        seen.add((tri, hess))
    assert seen == {(True, True), (False, True), (False, False)}
