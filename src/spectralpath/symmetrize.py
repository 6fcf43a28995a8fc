"""Symmetrization of matrices by positive diagonal conjugation.

A matrix A is symmetrizable here when some diagonal D with positive entries
makes D A D^-1 symmetric.  Writing w_i = D_ii^2, that is equivalent to the
detailed-balance relations w_i A_ij = w_j A_ji, so the search reduces to
propagating entry ratios over a spanning forest of the support graph (the
breadth-first forest of `digraph._bfs`) and checking consistency on the
remaining pairs.  Squares absorb sign choices, so restricting D to positive
entries loses no generality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .digraph import _bfs
from .linalg import Tolerance

__all__ = [
    "Symmetrizer",
    "NotSymmetrizable",
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

    reason is 'asymmetric_pattern' or 'inconsistent_cycle'; witness is the
    offending index pair.
    """

    reason: str
    witness: tuple


def _first_pair(mask: np.ndarray):
    """The first True entry of `mask` in row-major order, as a pair of ints, or None."""
    k = int(mask.argmax()) if mask.size else 0  # the first True, or 0 when there is none
    return divmod(k, mask.shape[1]) if mask.size and mask.flat[k] else None


def _search(A: np.ndarray, nz: np.ndarray, adj: tuple, tol: Tolerance):
    """Search for positive weights w with w_i A_ij = w_j A_ji.

    `A` is a validated nonnegative matrix, `nz` its pattern mask and `adj`
    the out-lists of `nz`.  Weights are propagated along a breadth-first
    spanning forest of the support graph (w_j = w_i * A_ij / A_ji, root
    weight 1 per component) and then every pair is checked for consistency,
    relative to the larger of |w_i A_ij| and |w_j A_ji|, so the answer does
    not change with the scale of `A`.  Returns a Symmetrizer on success and
    a NotSymmetrizable witness otherwise; a witness is the first offending
    pair i < j in row-major order.  Raises RuntimeError, naming the vertex,
    when a propagated weight underflows to 0 or overflows to inf.
    """
    n = A.shape[0]
    # the mask is symmetric, clear on the diagonal: its first True is a pair i < j
    pair = _first_pair(nz != nz.T)
    if pair is not None:
        return NotSymmetrizable("asymmetric_pattern", pair)

    order, _, parent = _bfs(adj, range(n))
    a = A.tolist()
    w = [1.0] * n
    for j in order:  # a parent comes before its children
        i = parent[j]
        if i >= 0:
            w[j] = wj = w[i] * a[i][j] / a[j][i]
            if not 0.0 < wj < inf:
                raise RuntimeError(f"symmetrizer weight of vertex {j} is {wj!r}, out of float range")

    w = np.array(w)
    lhs = w[:, None] * A  # lhs.T[i, j] = w_j A_ji
    mag = np.abs(lhs)
    bound = tol.residual_tol * np.maximum(mag, mag.T)
    pair = _first_pair(nz & (np.abs(lhs - lhs.T) > bound))
    if pair is not None:
        return NotSymmetrizable("inconsistent_cycle", pair)
    return Symmetrizer(kappa=w)

