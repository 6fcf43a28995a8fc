"""Spectral classification and primitive-idempotent entry profiles.

A square real matrix is *multiplicity-free* when it has n distinct real
eigenvalues theta_i.  Its spectral projectors are then rank one,

    E_i = x_i y_i^T,

with the right eigenvectors x_i in the columns of X and the left ones y_i^T
in the rows of Y^T = X^-1, and the profile of an entry position (s, t) is

    c_i = (E_i)_{st} * prod_{j != i} (theta_i - theta_j).

Whether that profile is a nonzero constant is the spectral side of the
structure tests in :mod:`spectralpath.equivalence`.  On the diagonal the
profile is the eigenvector-eigenvalue identity (Denton, Parke, Tao and
Zhang, arXiv:1908.03795).

Eigenvectors come from LAPACK.  When a positive diagonal D symmetrizes A,
`eigh` gives D A D^-1 = V diag(theta) V^T, so X = D^-1 V and Y^T = V^T D.
Otherwise `eig` gives X and Y^T = X^-1; its eigenvalues are grouped by
perturbation disks whose radii follow from the projector condition numbers,
and a group that neither separates nor passes the rank test raises
DegenerateSpectrumError instead of guessing.  Every spectrum is checked once
against the projector identities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import DegenerateSpectrumError, SpectralIdentityError, Tolerance, _gap_products
from .symmetrize import Symmetrizer

__all__ = [
    "SpectralKind",
    "Spectrum",
    "SpectralClass",
    "EntryProfile",
]

EPS = float(np.finfo(float).eps)


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
    """Profile values c_i at one entry position, with the constancy verdict."""

    values: np.ndarray
    is_constant: bool
    common_value: float | None
    constant_zero: bool
    spread: float
    threshold: float


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


def _spectrum(A, theta, X, Yt, tol: Tolerance) -> Spectrum:
    """Sort descending, verify the projectors X[:, i] Yt[i, :] once, attach gap products."""
    order = np.argsort(-theta, kind="stable")
    theta, X, Yt = theta[order], X[:, order], Yt[order, :]
    residuals = _verify_spectrum(A, theta, X, Yt, tol)
    gaps = _gap_products(theta, np.arange(len(theta)), tol)
    return Spectrum(theta=theta, X=X, Yt=Yt, gaps=gaps, residuals=residuals)


def _cluster_eigenvalues(values, eig_tol):
    """Group sorted values into (mean, multiplicity) clusters within eig_tol."""
    values = sorted(values, reverse=True)
    clusters = [[values[0]]]
    for v in values[1:]:
        if clusters[-1][-1] - v <= eig_tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return tuple([(sum(g) / len(g), len(g)) for g in clusters])  # list: see digraph._out_lists


def _eigenvalue_groups(A, w, X, Yt, tol: Tolerance) -> list:
    """(index list, complex center, float radius) for groups of eigenvalues no perturbation can tell apart.

    A group's disk is centred on its mean.  Its radius is the spread of its
    members about the mean plus 4 n eps ||A||_F ||P||_F, where P is the
    group's spectral projector: the first-order perturbation bound for a
    backward error of 4 n eps ||A||_F, with ||P|| as condition number, and
    never less than the floor eig_tol * scale.  A factor of 1 in place of 4
    leaves some eig-split Jordan blocks of order 2 apart.  Groups merge closest pair
    first while some pair of disks overlaps, and each merged group is
    conditioned anew through its own projector: the members of a repeated
    eigenvalue have nearly parallel eigenvectors and huge separate condition
    numbers, but their projectors sum to a moderate one.
    """
    n = len(w)
    floor = tol.eig_tol * max(1.0, float(np.abs(A).max()))
    unit = 4 * n * EPS * float(np.linalg.norm(A))
    groups = [[i] for i in range(n)]
    center = w.astype(complex)
    radius = np.maximum(floor, unit * np.linalg.norm(X, axis=0) * np.linalg.norm(Yt, axis=1))
    while len(groups) > 1:
        dist = np.abs(center[:, None] - center)
        np.fill_diagonal(dist, np.inf)
        touching = dist <= radius[:, None] + radius
        if not touching.any():
            break
        linked = np.where(touching, dist, np.inf)
        a, b = sorted(np.unravel_index(int(np.argmin(linked)), linked.shape))
        if not np.isfinite(linked[a, b]):  # each touching pair is at a distance that overflowed to inf
            break
        groups[a] += groups.pop(b)
        center, radius = np.delete(center, b), np.delete(radius, b)
        g = groups[a]
        center[a] = w[g].mean()
        kappa = float(np.linalg.norm(X[:, g] @ Yt[g, :]))
        radius[a] = max(floor, unit * kappa) + float(np.abs(w[g] - center[a]).max())
    return list(zip(groups, center.tolist(), radius.tolist()))


def _classify_general(A, tol: Tolerance) -> SpectralClass:
    """Classification by LAPACK `eig` for matrices without a symmetrizer."""
    n = A.shape[0]
    w, X = np.linalg.eig(A)
    # X^-1 by LU while ||X||_F ||X^-1||_F >= cond(X) is below 1e13: pinv's cutoff
    # 1e-15 sigma_max drops nothing there.  Past it the eigenvectors are dependent to
    # working precision (as for some repeated eigenvalues), and pinv drops those
    # directions instead of flooding every condition number with them
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
        sp = _spectrum(A, w.real, X.real, Yt.real, tol)
        return SpectralClass(
            kind=SpectralKind.MULTIPLICITY_FREE,
            eigenvalues=tuple([(float(t), 1) for t in sp.theta]),  # list: see digraph._out_lists
            spectrum=sp,
        )
    defects = []
    for mu, m in eigenvalues:
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


def _classify(A: np.ndarray, sym, tol: Tolerance) -> SpectralClass:
    """Classify the spectrum of a validated `A` whose symmetrizer search outcome is `sym`.

    A positive-diagonal symmetrizer D, when one exists, reduces the problem
    to `eigh` on D A D^-1 with guaranteed real spectrum; eigenvalues count
    as distinct when their gaps exceed eig_tol.  Otherwise `eig` is used:
    a group of eigenvalues whose mean is off the real axis by more than its
    radius makes the spectrum complex, and repeated real groups are probed
    with a rank test for missing eigenvector directions.  LAPACK failures
    surface as numpy.linalg.LinAlgError.
    """
    if not isinstance(sym, Symmetrizer):
        return _classify_general(A, tol)

    n = A.shape[0]
    delta = sym.delta
    S = sym.conjugate(A)
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    w, V = w[::-1], V[:, ::-1]
    if n > 1 and float((w[:-1] - w[1:]).min()) <= tol.eig_tol:
        return SpectralClass(
            kind=SpectralKind.DIAGONALIZABLE_NOT_MF,
            eigenvalues=_cluster_eigenvalues(w, tol.eig_tol),
        )
    sp = _spectrum(A, w, V / delta[:, None], V.T * delta[None, :], tol)
    return SpectralClass(
        kind=SpectralKind.MULTIPLICITY_FREE,
        eigenvalues=tuple([(float(t), 1) for t in sp.theta]),  # list: see digraph._out_lists
        spectrum=sp,
    )


def _profile_threshold(A, tol: Tolerance) -> float:
    """residual_tol * max|A|^(n-1); DegenerateSpectrumError when that is not finite."""
    d, scale = A.shape[0] - 1, float(np.abs(A).max())
    try:
        threshold = tol.residual_tol * scale**d
    except OverflowError:  # float ** raises it; an overflowing float * gives inf
        threshold = np.inf
    if threshold == np.inf:
        raise DegenerateSpectrumError(f"profile threshold residual_tol * {scale:.3e}^{d} overflows the float range")
    return threshold


def _profiles(A: np.ndarray, spectrum: Spectrum, tol: Tolerance, rows: slice):
    """Profiles c_i = (E_i)_{st} * gaps[i] of a validated `A` and its own `spectrum`, at the rows `rows`.

    The one place they are formed: C[i, r, t] = X[s, i] * gaps[i] * Yt[i, t]
    for each row s and every t, summed along axis 0 in one order everywhere.
    Returns C, the threshold (which grows with max|A|^d, as the gap products
    do), and per position the mean, spread, is_constant and constant_zero.
    """
    C = (spectrum.X[rows].T * spectrum.gaps[:, None])[:, :, None] * spectrum.Yt[:, None, :]
    threshold = _profile_threshold(A, tol)
    mean = np.add.reduce(C, axis=0) / len(C)
    spread = np.abs(C - mean).max(axis=0)
    is_constant = spread <= threshold
    return C, threshold, mean, spread, is_constant, is_constant & (np.abs(mean) <= threshold)
