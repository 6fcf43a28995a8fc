"""Spectral classification and primitive-idempotent entry profiles.

A square real matrix is *multiplicity-free* when it has n distinct real
eigenvalues theta_i.  Its spectral projectors are then rank one,

    E_i = x_i y_i^T,

with the right eigenvectors x_i in the columns of X and the left ones y_i^T
in the rows of Y^T = X^-1, and the profile of an entry position (s, t) is

    c_i = (E_i)_{st} * prod_{j != i} (theta_i - theta_j).

Whether that profile is a nonzero constant, its spread within residual_tol
of its own largest value, is the spectral side of the structure tests in
:mod:`spectralpath.equivalence`.  On the diagonal the profile is the
eigenvector-eigenvalue identity (Denton, Parke, Tao and Zhang,
arXiv:1908.03795).

Eigenvectors come from LAPACK.  When a positive diagonal D symmetrizes A,
`eigh` gives D A D^-1 = V diag(theta) V^T, so X = D^-1 V and Y^T = V^T D;
otherwise `eig` gives X and Y^T = X^-1.  `eigh`'s eigenvalues split exactly
at the gaps a Weyl bound certifies; `eig`'s merge by perturbation disks of
A, and a group that neither separates nor passes the rank test raises
DegenerateSpectrumError instead of guessing.  Every spectrum is checked once
against the projector identities of the matrix LAPACK solved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import (DegenerateSpectrumError, SpectralIdentityError, Tolerance, _gap_products, _symmetrized_eigh,
                     _weyl_unit)
from .symmetrize import Symmetrizer


class SpectralKind(enum.Enum):
    MULTIPLICITY_FREE = "multiplicity_free"
    DIAGONALIZABLE_NOT_MF = "diagonalizable_not_mf"
    NOT_DIAGONALIZABLE = "not_diagonalizable"
    COMPLEX_SPECTRUM = "complex_spectrum"


@dataclass(frozen=True)
class Spectrum:
    """Distinct real eigenvalues (descending) with verified rank-one projectors.

    Column i of `X` and row i of `Yt` are the right and left eigenvectors of
    theta_i, scaled so that E_i = outer(X[:, i], Yt[i, :]); `gaps[i]` is the
    gap product prod_{j != i} (theta_i - theta_j).
    """

    theta: np.ndarray
    X: np.ndarray
    Yt: np.ndarray
    gaps: np.ndarray
    residuals: dict = field(compare=False)


@dataclass(frozen=True)
class SpectralClass:
    """Classification of a matrix spectrum.

    `eigenvalues` lists (value, multiplicity) pairs for the real eigenvalues
    that were found; `rank_defects` lists (value, defect) pairs witnessing
    missing eigenvector directions; `spectrum` is populated only in the
    multiplicity-free case.
    """

    kind: SpectralKind
    eigenvalues: tuple
    rank_defects: tuple = ()
    spectrum: Spectrum | None = None


@dataclass(frozen=True)
class EntryProfile:
    """Profile values c_i at one entry position, their spread max_i |c_i - mean|, and the mean
    as `common_value` when they are a nonzero constant (see `_profiles`), else None."""

    values: np.ndarray
    common_value: float | None
    spread: float


def _verify_spectrum(A, theta, X, Yt, tol: Tolerance) -> dict:
    """The projector identities for E_i = X[:, i] Yt[i, :], in O(n^3).

    E_i E_j - delta_ij E_i = ((Yt X)_ij - delta_ij) X[:, i] Yt[j, :], so its
    largest entry is |(Yt X - I)_ij| max|X[:, i]| max|Yt[j, :]|.
    """
    eye = np.eye(len(theta))
    xmax = np.abs(X).max(axis=0)
    ymax = np.abs(Yt).max(axis=1)
    r_sum = float(np.abs(X @ Yt - eye).max())
    r_idem = float((np.abs(Yt @ X - eye) * xmax[:, None] * ymax[None, :]).max())
    r_recon = float(np.abs(A - (X * theta) @ Yt).max())
    scale = max(1.0, float(np.abs(A).max()))
    if r_sum > tol.residual_tol:
        raise SpectralIdentityError("sum_to_identity", r_sum, tol.residual_tol)
    if r_idem > tol.residual_tol:
        raise SpectralIdentityError("idempotency", r_idem, tol.residual_tol)
    if r_recon > tol.residual_tol * scale:
        raise SpectralIdentityError("reconstruction", r_recon, tol.residual_tol * scale)
    return {"sum_to_identity": r_sum, "idempotency": r_idem, "reconstruction": r_recon}


def _spectrum(A, theta, X, Yt, tol: Tolerance, solved=None) -> Spectrum:
    """Sort descending, verify the projectors X[:, i] Yt[i, :] once, attach gap products.

    The `eigh` route verifies them on `solved` = (H, V), already descending: D's spread inflates X Yt.
    """
    order = np.argsort(-theta, kind="stable")
    theta, X, Yt = theta[order], X[:, order], Yt[order, :]
    M, Xv, Yv = (A, X, Yt) if solved is None else (solved[0], solved[1], solved[1].T)
    residuals = _verify_spectrum(M, theta, Xv, Yv, tol)
    gaps = _gap_products(theta, tol)
    return Spectrum(theta=theta, X=X, Yt=Yt, gaps=gaps, residuals=residuals)


def _eigenvalue_groups(A, w, X, Yt, tol: Tolerance) -> list:
    """(index list, complex center, float radius) for groups of the eigenvalues `w` of `A` no perturbation can tell apart.

    `A` is the matrix `eig` solved, X and Yt its right and left eigenvectors.
    A disk is centred on its group's mean, with the members' spread plus
    unit * ||P||_F as radius (P the group's projector: the first-order bound
    for the backward error `_weyl_unit(A)`; a factor of 1 leaves some
    eig-split Jordan blocks of order 2 apart), and never less than the floor
    eig_tol * max|A|.  Groups merge closest pair first while disks overlap; a
    merged group takes its own ||P||, moderate where its members' nearly
    parallel eigenvectors have huge ones.
    """
    floor, unit = tol.eig_tol * float(np.abs(A).max()), _weyl_unit(A)
    groups = [[i] for i in range(len(w))]
    center = w.astype(complex)
    radius = np.maximum(floor, unit * np.linalg.norm(X, axis=0) * np.linalg.norm(Yt, axis=1))
    while len(groups) > 1:
        dist = np.abs(center[:, None] - center)
        np.fill_diagonal(dist, np.inf)
        linked = np.where(dist <= radius[:, None] + radius, dist, np.inf)
        k = int(np.argmin(linked))
        if not np.isfinite(linked.flat[k]):  # no pair touches, or each touching pair's distance overflowed
            break
        a, b = sorted(np.unravel_index(k, linked.shape))
        groups[a] += groups.pop(b)
        center, radius = np.delete(center, b), np.delete(radius, b)
        g = groups[a]
        center[a] = w[g].mean()
        kappa = float(np.linalg.norm(X[:, g] @ Yt[g, :]))
        radius[a] = max(floor, unit * kappa) + float(np.abs(w[g] - center[a]).max())
    return list(zip(groups, center.tolist(), radius.tolist()))


def _classify(A: np.ndarray, sym, tol: Tolerance) -> SpectralClass:
    """Classify the spectrum of a validated `A` whose symmetrizer search outcome is `sym`.

    The route (`eigh` with a symmetrizer, `eig` without) chooses X, Y^T and
    the grouping.  On `eigh` the groups are the runs of `_symmetrized_eigh`,
    split at twice the Weyl unit (it raises on a gap its symmetrizer's residual
    leaves unproved); `eig_tol` does not enter.  On `eig`, `_eigenvalue_groups`
    merges disks of A, never below eig_tol * max|A|, and a group off the real axis by more
    than its radius makes the spectrum complex.  n groups are
    multiplicity-free; a repeated group is diagonalizable on `eigh` (H is
    symmetric) and rank-tested on `eig`.  LAPACK failures raise LinAlgError.
    """
    n = A.shape[0]
    symmetrized = isinstance(sym, Symmetrizer)
    if symmetrized:
        w, V, H, cuts = _symmetrized_eigh(A, sym.delta)
        X, Yt = V / sym.delta[:, None], V.T * sym.delta[None, :]
        # runs on the real axis (radius 0); a singleton's value skips a numpy mean, which costs more than the split
        groups = [(range(a, b), w[a] if b - a == 1 else w[a:b].mean(), 0.0) for a, b in zip(cuts, cuts[1:])]
    else:
        w, X = np.linalg.eig(A)
        # X^-1 by LU while ||X||_F ||X^-1||_F >= cond(X) is below 1e13, where pinv would drop
        # nothing; past it pinv drops the directions dependent to working precision instead
        # of flooding every condition number with them
        try:
            Yt = np.linalg.inv(X)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed norm fails the test
                separated = np.linalg.norm(X) * np.linalg.norm(Yt) < 1e13
        except np.linalg.LinAlgError:
            separated = False
        if not separated:
            Yt = np.linalg.pinv(X)
        groups = _eigenvalue_groups(A, w, X, Yt, tol)
    real = [(float(c.real), len(g)) for g, c, r in groups if abs(c.imag) <= r]
    eigenvalues = tuple(sorted(real, key=lambda p: -p[0]))
    if len(real) < len(groups):
        return SpectralClass(kind=SpectralKind.COMPLEX_SPECTRUM, eigenvalues=eigenvalues)
    if len(groups) == n:
        sp = _spectrum(A, w.real, X.real, Yt.real, tol, (H, V) if symmetrized else None)
        eigenvalues = tuple([(float(t), 1) for t in sp.theta])  # list: see digraph._out_lists
        return SpectralClass(kind=SpectralKind.MULTIPLICITY_FREE, eigenvalues=eigenvalues, spectrum=sp)
    defects = []
    for mu, m in () if symmetrized else eigenvalues:
        if m < 2:
            continue
        shifted = A - mu * np.eye(n)
        thr = tol.residual_tol * max(1.0, float(np.max(np.abs(shifted))))
        geometric = n - int(np.linalg.matrix_rank(shifted, tol=thr))
        if not 1 <= geometric <= m:
            raise DegenerateSpectrumError(
                f"{m} eigenvalues near {mu:.6g} cannot be resolved: "
                f"{geometric} eigenvector directions at the rank threshold {thr:.3e}"
            )
        if geometric < m:
            defects.append((mu, m - geometric))
    kind = SpectralKind.NOT_DIAGONALIZABLE if defects else SpectralKind.DIAGONALIZABLE_NOT_MF
    return SpectralClass(kind=kind, eigenvalues=eigenvalues, rank_defects=tuple(defects))


def _profiles(spectrum: Spectrum, tol: Tolerance, rows: slice):
    """Profiles c_i = (E_i)_{st} * gaps[i] of a multiplicity-free `spectrum`, at the rows `rows`.

    The one place they are formed: C[i, r, t] = X[s, i] * gaps[i] * Yt[i, t]
    for each row s and every t, summed along axis 0 in one order everywhere.
    Returns C and per position the mean, spread and whether the profile is a
    nonzero constant, a test of the profile alone: spread <= residual_tol *
    max_i |c_i|, and spread < max_i |c_i|, which keeps the mean off zero.
    """
    C = (spectrum.X[rows].T * spectrum.gaps[:, None])[:, :, None] * spectrum.Yt[:, None, :]
    mean = np.add.reduce(C, axis=0) / len(C)
    spread = np.abs(C - mean).max(axis=0)
    peak = np.abs(C).max(axis=0)
    return C, mean, spread, (spread <= tol.residual_tol * peak) & (spread < peak)
