"""Reference answers computed without spectralpath.

Every expected value the benchmark checks comes from here: numpy's own
eigensolvers, boolean walk powers, closed-form eigenmatrices of the scheme
families, and exact rational arithmetic.  Nothing in this module imports
spectralpath, so a fault in the package cannot leak into its own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def symmetrized(A: np.ndarray) -> np.ndarray:
    """Symmetric matrix similar to a nonnegative symmetrizable `A`.

    A diagonal similarity D A D^-1 that is symmetric has off-diagonal
    entries sqrt(A_ij A_ji); the diagonal is unchanged.
    """
    S = np.sqrt(A * A.T)
    np.fill_diagonal(S, np.diag(A))
    return S


def walk_distances(A: np.ndarray) -> np.ndarray:
    """Directed distances by boolean walk powers; -1 where unreachable.

    dist[s, t] is the least k with (B^k)_st > 0 for the 0/1 pattern B of A
    with its diagonal removed.
    """
    n = A.shape[0]
    B = (A != 0).astype(float)
    np.fill_diagonal(B, 0.0)
    dist = np.full((n, n), -1, dtype=int)
    reach = np.eye(n, dtype=bool)
    dist[reach] = 0
    for k in range(1, n):
        reach = (reach.astype(float) @ B) > 0
        new = reach & (dist < 0)
        if not new.any():
            break
        dist[new] = k
    return dist


def min_gap(values) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    return float(np.min(np.diff(v))) if len(v) > 1 else float("inf")


def path_ordering_from_zero(support: np.ndarray):
    """Ordering starting at vertex 0 when `support` (symmetric, bool) is a path.

    The diagonal is ignored.  Returns None unless the graph is a single
    path through every vertex with 0 at one end.
    """
    n = support.shape[0]
    S = support.copy()
    np.fill_diagonal(S, False)
    if not np.array_equal(S, S.T):
        return None
    if n == 1:
        return (0,)
    nbrs = [set(np.flatnonzero(S[i]).tolist()) for i in range(n)]
    if len(nbrs[0]) != 1:
        return None
    order = [0]
    prev = -1
    while True:
        nxt = [w for w in nbrs[order[-1]] if w != prev]
        if not nxt:
            break
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
        if len(order) > n:
            return None
    return tuple(order) if len(order) == n and len(set(order)) == n else None


def orderings_from_tensor(t) -> set:
    """Polynomial orderings (generator, ordering, last) of an exact tensor.

    `t[h][i][j]` is an intersection number or a Krein parameter.  Generator
    i qualifies when the support of the matrix with (h, j) entry t[h][i][j]
    is a path starting at 0; its ordering is read off along that path.
    """
    dp1 = len(t)
    found = set()
    for i in range(1, dp1):
        support = np.array([[t[h][i][j] != 0 for j in range(dp1)] for h in range(dp1)])
        order = path_ordering_from_zero(support)
        if order is not None:
            found.add((i, order, order[-1]))
    return found


def orderings_from_relations(labels: np.ndarray, dp1: int) -> set:
    """P-polynomial orderings from breadth-first distances in relation graphs.

    `labels[x, y]` is the relation index of the pair.  In an association
    scheme the distance from x to y in the graph of relation i depends only
    on the relation of (x, y), so distances from vertex 0 decide whether the
    distance classes of relation i are exactly the d+1 relations.
    """
    found = set()
    for i in range(1, dp1):
        adj = labels == i
        dist = np.full(labels.shape[0], -1)
        dist[0] = 0
        frontier = np.zeros(labels.shape[0], dtype=bool)
        frontier[0] = True
        depth = 0
        while frontier.any():
            depth += 1
            nxt = adj[frontier].any(axis=0) & (dist < 0)
            dist[nxt] = depth
            frontier = nxt
        if (dist < 0).any():
            continue
        order = []
        for delta in range(int(dist.max()) + 1):
            rels = set(labels[0, dist == delta].tolist())
            if len(rels) != 1:
                break
            order.append(rels.pop())
        else:
            if len(order) == dp1:
                found.add((i, tuple(order), order[-1]))
    return found


# ---------------------------------------------------------------- closed forms
#
# Rows of P are eigenspaces in the order spectralpath documents: the valency
# row first, the rest by descending column-1 entry (ties broken by the rest
# of the row, descending).  Each family below lists its rows in that order.


def hamming_P(n: int):
    """Krawtchouk eigenmatrix of H(n, 2): P[j][i] = K_i(j), m_j = C(n, j)."""
    P = [
        [sum((-1) ** l * comb(j, l) * comb(n - j, i - l) for l in range(i + 1)) for i in range(n + 1)]
        for j in range(n + 1)
    ]
    return P, [comb(n, j) for j in range(n + 1)]


def johnson_P(v: int, k: int):
    """Eberlein eigenmatrix of J(v, k); relation i is |x & y| = k - i.

    P[j][i] = sum_l (-1)^l C(j, l) C(k-j, i-l) C(v-k-j, i-l), so the
    generator column is theta_j = (k-j)(v-k-j) - j; m_j = C(v,j) - C(v,j-1).
    """
    P = [
        [
            sum(
                (-1) ** l * comb(j, l) * comb(k - j, i - l) * comb(v - k - j, i - l)
                for l in range(i + 1)
            )
            for i in range(k + 1)
        ]
        for j in range(k + 1)
    ]
    m = [comb(v, j) - (comb(v, j - 1) if j else 0) for j in range(k + 1)]
    return P, m


def rook_P(m: int, n: int):
    """Eigenmatrix of K_m x K_n (m, n >= 3, m != n) with relations
    0 equal, 1 same first coordinate, 2 same second coordinate, 3 neither."""
    P = [
        [1, n - 1, m - 1, (m - 1) * (n - 1)],
        [1, n - 1, -1, -(n - 1)],
        [1, -1, m - 1, -(m - 1)],
        [1, -1, -1, 1],
    ]
    return P, [1, m - 1, n - 1, (m - 1) * (n - 1)]


def complete_P(n: int):
    return [[1, n - 1], [1, -1]], [1, n - 1]


def exact_Q(P, m):
    """Q[i][j] = m_j P[j][i] / k_i, exactly (k_i = P[0][i])."""
    dp1 = len(P)
    return [[Fraction(m[j] * P[j][i], P[0][i]) for j in range(dp1)] for i in range(dp1)]


def exact_krein(P, m):
    """Krein parameters q[h][i][j] = (1 / (|X| m_h)) sum_l k_l Q_li Q_lj Q_lh."""
    dp1 = len(P)
    Q = exact_Q(P, m)
    k = [P[0][i] for i in range(dp1)]
    size = sum(k)
    q = [[[Fraction(0)] * dp1 for _ in range(dp1)] for _ in range(dp1)]
    for h in range(dp1):
        for i in range(dp1):
            for j in range(i, dp1):
                v = sum(k[l] * Q[l][i] * Q[l][j] * Q[l][h] for l in range(dp1)) / (size * m[h])
                q[h][i][j] = q[h][j][i] = v
    return q


def hamming_p(n: int):
    """p^h_ij of H(n, 2) = C(h, (h+i-j)/2) C(n-h, (i+j-h)/2) when parity allows."""
    dp1 = n + 1
    p = [[[0] * dp1 for _ in range(dp1)] for _ in range(dp1)]
    for h in range(dp1):
        for i in range(dp1):
            for j in range(dp1):
                if (h + i + j) % 2:
                    continue
                a, b = (h + i - j) // 2, (i + j - h) // 2
                if 0 <= a <= h and 0 <= b <= n - h:
                    p[h][i][j] = comb(h, a) * comb(n - h, b)
    return p


def johnson_p(v: int, k: int):
    """p^h_ij of J(v, k) by counting z over the four blocks cut out by x, y."""
    dp1 = k + 1
    p = [[[0] * dp1 for _ in range(dp1)] for _ in range(dp1)]
    for h in range(dp1):
        for i in range(dp1):
            for j in range(dp1):
                total = 0
                for a in range(k - h + 1):  # a = |z & x & y|
                    b, c = k - i - a, k - j - a
                    e = i + j + a - k
                    if min(b, c, e) < 0:
                        continue
                    total += comb(k - h, a) * comb(h, b) * comb(h, c) * comb(v - k - h, e)
                p[h][i][j] = total
    return p


def rook_p(m: int, n: int):
    """p^h_ij of K_m x K_n, counted from one base pair of each relation."""

    def rel(x, y):
        return 2 * (x[0] != y[0]) + (x[1] != y[1])

    p = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for h, y in {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}.items():
        for z in ((a, b) for a in range(m) for b in range(n)):
            p[h][rel((0, 0), z)][rel(z, y)] += 1
    return p


def hamming_labels(n: int) -> np.ndarray:
    x = np.arange(2**n, dtype=np.uint32)
    return np.bitwise_count(x[:, None] ^ x[None, :]).astype(np.int64)


def johnson_labels(v: int, k: int) -> np.ndarray:
    """Relation labels of J(v, k) on k-subsets in lexicographic order."""
    from itertools import combinations

    masks = np.array([sum(1 << e for e in c) for c in combinations(range(v), k)], dtype=np.uint32)
    return (k - np.bitwise_count(masks[:, None] & masks[None, :])).astype(np.int64)


def rook_labels(m: int, n: int) -> np.ndarray:
    a = np.repeat(np.arange(m), n)
    b = np.tile(np.arange(n), m)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    return np.where(same_a & same_b, 0, np.where(same_a, 1, np.where(same_b, 2, 3))).astype(np.int64)


def complete_labels(n: int) -> np.ndarray:
    return (1 - np.eye(n, dtype=np.int64)).astype(np.int64)
