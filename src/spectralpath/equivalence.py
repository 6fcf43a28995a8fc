"""Equivalence checks between pattern structure and spectral profiles.

Two forms of one check for a nonnegative square matrix A of order d+1
and an entry position (s, t):

* path form: the nonzero pattern of A is a bidirected path with endpoints
  {s, t}  <=>  A is symmetrizable by a positive diagonal, multiplicity-free,
  and the entry-product profile at (s, t) is a nonzero constant.

* distance form: A is diagonalizable with real spectrum and the directed
  distance from s to t in its pattern graph equals d  <=>  A is
  multiplicity-free and the profile at (s, t) is a nonzero constant.

On a symmetric pattern, distance d from s to t is the same as a
bidirected path with endpoints {s, t}: each breadth-first layer holds one
vertex.  So both forms test distance d on the pattern side and a nonzero
constant profile on the spectral side, and differ only in their gates:
a path order and a symmetrizer for the path form, a diagonalizable
spectrum for the distance form.  The two sides are evaluated
independently; a report in which they disagree is a numerical
diagnostic, never silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import _bfs, _out_lists, _path_order, gamma
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .spectra import (
    EntryProfile,
    SpectralClass,
    SpectralKind,
    _classify,
    _profiles,
)
from .symmetrize import Symmetrizer, _search

PROFILE_BLOCK = 1 << 20  # profile values formed at once by `constant_positions`
_DIAGONALIZABLE = (SpectralKind.MULTIPLICITY_FREE, SpectralKind.DIAGONALIZABLE_NOT_MF)  # the distance form's gate


class NegativeEntryError(ValueError):
    """Input matrix has an entry more negative than the clamp threshold."""


def clamp_nonnegative(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A validated copy of `A` with tiny negative entries clamped to zero; reject genuine negatives."""
    A = as_matrix(A)
    low = float(A.min())
    if low < -tol.zero_tol:
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        raise NegativeEntryError(
            f"entry ({i}, {j}) = {A[i, j]:.6g} is negative beyond the clamp threshold"
        )
    return np.where(A < 0.0, 0.0, A) if low < 0.0 else A


@dataclass(frozen=True)
class MatrixAnalysis:
    """One-shot structural and spectral analysis of a nonnegative matrix.

    The one way to ask a per-position question of a matrix: `profile`,
    `distance` and `constant_positions` here, and `check_characterization`
    takes it.  Sweeping over many (s, t) positions costs one classification,
    not one per position.  `pattern` is the boolean mask of the pattern
    graph, from `gamma`; `_adj` its out-lists.
    """

    A: np.ndarray
    tol: Tolerance
    pattern: np.ndarray
    path_order: tuple | None
    symmetrizer: object
    spectral: SpectralClass
    _adj: tuple = field(repr=False)

    def _check_position(self, s: int, t: int):
        n = len(self.A)
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"entry position ({s}, {t}) outside 0..{n - 1}")

    def distance(self, s: int, t: int) -> int | None:
        """Directed distance from s to t in the pattern graph, or None if unreachable."""
        self._check_position(s, t)
        dist = _bfs(self._adj, (s,))[1][t]
        return dist if dist >= 0 else None

    def far_pairs(self) -> list:
        """The distance form's pattern side: (s, t) at distance n - 1, given a diagonalizable spectrum, row-major.

        On a symmetric pattern they are the ends of a path or none; otherwise
        one breadth-first search per vertex finds them.
        """
        n, order = len(self.A), self.path_order
        if self.spectral.kind not in _DIAGONALIZABLE or (order is None and (self.pattern == self.pattern.T).all()):
            return []
        if order is not None:
            return sorted({(order[0], order[-1]), (order[-1], order[0])})
        return [(s, t) for s in range(n) for t, dist in enumerate(_bfs(self._adj, (s,))[1]) if dist == n - 1]

    def profile(self, s: int, t: int) -> EntryProfile | None:
        """Entry-product profile at (s, t); None when `A` is not multiplicity-free."""
        self._check_position(s, t)
        if self.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
            return None
        # the whole row s: numpy would sum a lone column pairwise, a row in the sweep's order
        C, threshold, mean, spread, constant, zero = _profiles(
            self.A, self.spectral.spectrum, self.tol, slice(s, s + 1))
        constant, zero = bool(constant[0, t]), bool(zero[0, t])
        common = float(mean[0, t]) if constant and not zero else None
        return EntryProfile(C[:, 0, t], constant, common, zero, float(spread[0, t]), threshold)

    def constant_positions(self) -> list:
        """(s, t, common value) in row-major order for every position with a nonzero constant profile."""
        if self.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
            return []
        n = len(self.A)
        step = max(1, PROFILE_BLOCK // (n * n))  # rows per block
        found = []
        for first in range(0, n, step):
            _, _, mean, _, constant, zero = _profiles(
                self.A, self.spectral.spectrum, self.tol, slice(first, first + step))
            found += [(first + int(r), int(t), float(mean[r, t])) for r, t in np.argwhere(constant & ~zero)]
        return found


def analyze_matrix(A, tol: Tolerance = DEFAULT_TOL) -> MatrixAnalysis:
    """Analyze pattern, symmetrizability and spectrum of `A`, from one mask and its out-lists."""
    A = clamp_nonnegative(A, tol)
    pattern = gamma(A, tol)
    adj = _out_lists(pattern)
    sym = _search(A, pattern, adj, tol)
    spectral = _classify(A, sym, tol)
    return MatrixAnalysis(A, tol, pattern, _path_order(pattern, adj), sym, spectral, adj)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one equivalence check at a single entry position.

    `condition_i` is the pattern-side condition, `condition_ii` the
    spectral-side condition; `equivalent` is always derived from the two,
    never stored.  Evidence fields are populated for whatever was actually
    evaluated (`profile` stays None when the matrix is not
    multiplicity-free).
    """

    form: str
    s: int
    t: int
    condition_i: bool
    condition_ii: bool
    spectral_kind: SpectralKind
    symmetrizable: bool
    path_order: tuple | None
    distance: int | None
    profile: EntryProfile | None

    @property
    def equivalent(self) -> bool:
        return self.condition_i == self.condition_ii


def check_characterization(analysis: MatrixAnalysis, form: str, s: int, t: int) -> EquivalenceReport:
    """The path or distance form of the check at (s, t); `form` is "path" or "distance".

    Pattern side: distance n - 1 from s to t, given a path order (path form)
    or a diagonalizable spectrum (distance form).  Spectral side: a nonzero
    constant profile, given a symmetrizer in the path form.  A sweep over
    the positions of one matrix shares one `analyze_matrix`.
    """
    if form not in ("path", "distance"):
        raise ValueError(f"unknown form {form!r}; expected 'path' or 'distance'")
    kind = analysis.spectral.kind
    symmetrizable = isinstance(analysis.symmetrizer, Symmetrizer)
    if form == "path":
        pattern_gate, spectral_gate = analysis.path_order is not None, symmetrizable
    else:
        pattern_gate = kind in _DIAGONALIZABLE
        spectral_gate = True
    dist = analysis.distance(s, t)
    profile = analysis.profile(s, t)
    return EquivalenceReport(
        form=form,
        s=s,
        t=t,
        condition_i=pattern_gate and dist == len(analysis.A) - 1,
        condition_ii=spectral_gate and profile is not None and profile.common_value is not None,
        spectral_kind=kind,
        symmetrizable=symmetrizable,
        path_order=analysis.path_order,
        distance=dist,
        profile=profile,
    )
