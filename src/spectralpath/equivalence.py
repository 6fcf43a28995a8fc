"""Equivalence checks between pattern structure and spectral profiles.

Two checks for a nonnegative square matrix A of order d+1 and an entry
position (s, t):

* path form: the nonzero pattern of A is a bidirected path with endpoints
  {s, t}  <=>  A is symmetrizable by a positive diagonal, multiplicity-free,
  and the entry-product profile at (s, t) is a nonzero constant.

* distance form: A is diagonalizable with real spectrum and the directed
  distance from s to t in its pattern graph equals d  <=>  A is
  multiplicity-free and the profile at (s, t) is a nonzero constant.

Both sides of each check are evaluated independently; a report in which
they disagree is a numerical diagnostic, never silently repaired.
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
    _constant_positions,
    _profile,
)
from .symmetrize import Symmetrizer, _search

__all__ = [
    "MatrixAnalysis",
    "EquivalenceReport",
    "analyze_matrix",
    "check_path_characterization",
    "check_distance_characterization",
    "clamp_nonnegative",
    "NegativeEntryError",
]


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
    `distance` and `constant_positions` here, and both equivalence checks
    take it.  Sweeping over many (s, t) positions costs one classification,
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
        dist = _bfs(self._adj, s, t)[0][t]
        return dist if dist >= 0 else None

    def profile(self, s: int, t: int) -> EntryProfile | None:
        """Entry-product profile at (s, t); None when `A` is not multiplicity-free."""
        self._check_position(s, t)
        if self.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
            return None
        return _profile(self.A, s, t, self.tol, self.spectral.spectrum)

    def constant_positions(self) -> list:
        """(s, t, common value) for every position with a nonzero constant profile."""
        if self.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
            return []
        return _constant_positions(self.A, self.spectral.spectrum, self.tol)


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

    @property
    def both_true(self) -> bool:
        return self.condition_i and self.condition_ii


def _spectral_side(analysis: MatrixAnalysis, s: int, t: int):
    """condition (ii): multiplicity-free with constant nonzero profile."""
    profile = analysis.profile(s, t)
    ok = profile is not None and profile.is_constant and profile.common_value is not None
    return ok, profile


def check_path_characterization(analysis: MatrixAnalysis, s: int, t: int) -> EquivalenceReport:
    """Bidirected-path pattern with endpoints {s, t} vs spectral profile.

    A sweep over the positions of one matrix shares one `analyze_matrix`.
    """
    order = analysis.path_order
    cond_i = order is not None and {order[0], order[-1]} == {s, t}
    symmetrizable = isinstance(analysis.symmetrizer, Symmetrizer)
    spectral_ok, profile = _spectral_side(analysis, s, t)
    cond_ii = symmetrizable and spectral_ok
    return EquivalenceReport(
        form="path",
        s=s,
        t=t,
        condition_i=cond_i,
        condition_ii=cond_ii,
        spectral_kind=analysis.spectral.kind,
        symmetrizable=symmetrizable,
        path_order=order,
        distance=analysis.distance(s, t),
        profile=profile,
    )


def check_distance_characterization(analysis: MatrixAnalysis, s: int, t: int) -> EquivalenceReport:
    """Directed distance d from s to t plus diagonalizability vs profile."""
    kind = analysis.spectral.kind
    diagonalizable = kind in (SpectralKind.MULTIPLICITY_FREE, SpectralKind.DIAGONALIZABLE_NOT_MF)
    dist = analysis.distance(s, t)
    cond_i = bool(diagonalizable and dist == len(analysis.A) - 1)
    spectral_ok, profile = _spectral_side(analysis, s, t)
    return EquivalenceReport(
        form="distance",
        s=s,
        t=t,
        condition_i=cond_i,
        condition_ii=spectral_ok,
        spectral_kind=kind,
        symmetrizable=isinstance(analysis.symmetrizer, Symmetrizer),
        path_order=analysis.path_order,
        distance=dist,
        profile=profile,
    )

