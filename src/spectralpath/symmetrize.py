"""Symmetrization of matrices by positive diagonal conjugation.

A matrix A is symmetrizable here when some diagonal D with positive entries
makes D A D^-1 symmetric.  Writing w_i = D_ii^2, that is equivalent to the
detailed-balance relations w_i A_ij = w_j A_ji, so the search reduces to
propagating entry ratios over a spanning forest of the support graph and
checking consistency on the remaining pairs.  Squares absorb sign choices,
so restricting D to positive entries loses no generality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .digraph import _out_lists, gamma, is_irreducible_tridiagonal
from .linalg import DEFAULT_TOL, Tolerance, as_matrix

__all__ = [
    "Symmetrizer",
    "NotSymmetrizable",
    "find_symmetrizer",
    "tridiagonal_symmetrizer",
]


@dataclass(frozen=True)
class Symmetrizer:
    """Positive weights w with w_i A_ij = w_j A_ji for the source matrix.

    `delta` is the diagonal of D = diag(sqrt(w)); conjugation by D
    symmetrizes the source matrix.
    """

    kappa: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return np.sqrt(self.kappa)

    def conjugate(self, A) -> np.ndarray:
        """D A D^-1 for D = diag(delta)."""
        A = np.asarray(A, dtype=float)
        d = self.delta
        return (A * d[:, None]) / d[None, :]


@dataclass(frozen=True)
class NotSymmetrizable:
    """Witness that no positive-diagonal symmetrizer exists.

    reason is one of 'asymmetric_pattern', 'nonpositive_ratio',
    'inconsistent_cycle'; witness is the offending index pair.
    """

    reason: str
    witness: tuple


def _first_pair(mask: np.ndarray):
    """The first True entry of `mask` in row-major order, as a pair of ints, or None."""
    hits = np.flatnonzero(mask)
    return divmod(int(hits[0]), mask.shape[1]) if hits.size else None


def find_symmetrizer(A, tol: Tolerance = DEFAULT_TOL):
    """Search for positive weights w with w_i A_ij = w_j A_ji.

    Weights are propagated along a breadth-first spanning forest of the
    support graph (w_j = w_i * A_ij / A_ji, root weight 1 per component)
    and then every pair is checked for consistency with a relative
    tolerance.  Returns a Symmetrizer on success and a NotSymmetrizable
    witness otherwise; a witness is the first offending pair i < j in
    row-major order.  Raises RuntimeError, naming the vertex, when a
    propagated weight underflows to 0 or overflows to inf.
    """
    A = as_matrix(A)
    return _search(A, gamma(A, tol), None, tol)


def _search(A: np.ndarray, nz: np.ndarray, adj, tol: Tolerance):
    """`find_symmetrizer` of a validated `A`: pattern mask `nz`, its out-lists `adj` or None."""
    n = A.shape[0]
    upper = np.arange(n)[:, None] < np.arange(n)  # the pairs i < j
    asymmetric = nz != nz.T
    pair = _first_pair(upper & (asymmetric | (nz & (A * A.T <= 0.0))))
    if pair is not None:
        reason = "asymmetric_pattern" if asymmetric[pair] else "nonpositive_ratio"
        return NotSymmetrizable(reason, pair)

    adj = _out_lists(nz) if adj is None else adj
    a = A.tolist()
    w = [1.0] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for i in queue:  # first in, first out: the loop reaches every vertex appended
            wi, ai = w[i], a[i]
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    w[j] = wj = wi * ai[j] / a[j][i]
                    if not 0.0 < wj < inf:
                        raise RuntimeError(f"symmetrizer weight of vertex {j} is {wj!r}, out of float range")
                    queue.append(j)

    w = np.array(w)
    lhs = w[:, None] * A  # lhs.T[i, j] = w_j A_ji
    mag = np.abs(lhs)
    bound = tol.residual_tol * np.maximum(np.maximum(mag, mag.T), 1.0)
    pair = _first_pair(upper & nz & (np.abs(lhs - lhs.T) > bound))
    if pair is not None:
        return NotSymmetrizable("inconsistent_cycle", pair)
    return Symmetrizer(kappa=w)


def tridiagonal_symmetrizer(A, tol: Tolerance = DEFAULT_TOL) -> Symmetrizer:
    """Closed-form weights for a nonnegative irreducible tridiagonal matrix.

    kappa_i is the ratio of the superdiagonal product A_01 ... A_{i-1,i}
    to the subdiagonal product A_10 ... A_{i,i-1}, with kappa_0 = 1; these
    weights satisfy K A = A^T K exactly.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if np.min(A) < 0.0:
        raise ValueError("tridiagonal symmetrizer expects a nonnegative matrix")
    if not is_irreducible_tridiagonal(A, tol):
        raise ValueError("matrix is not irreducible tridiagonal")
    kappa = np.ones(n)
    for i in range(1, n):
        kappa[i] = kappa[i - 1] * (A[i - 1, i] / A[i, i - 1])
    return Symmetrizer(kappa=kappa)
