"""Dense real linear algebra helpers.

Everything downstream works with square matrices of double-precision reals.
Symmetric eigenproblems go to LAPACK through `numpy.linalg.eigh`, wrapped by
`sym_eigen` to check symmetry and order eigenvalues descending; the
non-symmetric ones are handled in :mod:`spectralpath.spectra`.  Linear
systems go through Gaussian elimination with partial pivoting, and numeric
rank through full-pivot elimination, both with scale-aware thresholds.
Matrices are read and written in a plain text format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "multiply",
    "sym_eigen",
    "solve",
    "numeric_rank",
    "read_matrix",
    "write_matrix",
    "SingularMatrixError",
    "MatrixParseError",
]


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used across the package.

    zero_tol decides whether an entry counts as structurally nonzero,
    eig_tol decides whether two eigenvalues count as distinct, and
    residual_tol bounds acceptable residuals in verified identities.
    """

    zero_tol: float = 1e-10
    eig_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("zero_tol", "eig_tol", "residual_tol"):
            v = getattr(self, name)
            if not (v >= 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")


DEFAULT_TOL = Tolerance()


class SingularMatrixError(ValueError):
    """Raised when elimination hits a pivot below the zero threshold."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular to working precision (pivot column {pivot_index})")


class MatrixParseError(ValueError):
    """Raised on malformed matrix text, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def as_matrix(A) -> np.ndarray:
    """Copy `A` into a float64 square matrix, validating shape and finiteness."""
    M = np.array(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must all be finite")
    return M


def multiply(A, B) -> np.ndarray:
    """Matrix product with dimension validation."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes for product: {A.shape} x {B.shape}")
    return A @ B


def sym_eigen(S, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    LAPACK `eigh` on the symmetric part of `S`.  Returns ``(w, V)`` with
    eigenvalues `w` sorted descending and eigenvectors in the columns of
    `V`, so that ``S = V @ diag(w) @ V.T``.  Raises ValueError when `S` is
    not symmetric to within zero_tol.
    """
    S = as_matrix(S)
    asym = float(np.max(np.abs(S - S.T))) if S.shape[0] > 1 else 0.0
    if asym > tol.zero_tol:
        raise ValueError(f"matrix is not symmetric (max |S - S^T| = {asym:.3e})")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return w[::-1].copy(), V[:, ::-1].copy()


def solve(A, B, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve A X = B by Gaussian elimination with partial pivoting.

    `B` may be a vector or a matrix of right-hand sides.  Raises
    SingularMatrixError with the offending pivot column when a pivot falls
    below zero_tol, and ValueError if the computed solution fails a
    scale-aware residual check.
    """
    A = as_matrix(A)
    n = A.shape[0]
    b = np.array(B, dtype=float)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(n, 1) if b.shape[0] == n else b
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"right-hand side shape {np.shape(B)} does not match order {n}")

    M = np.hstack([A.copy(), b.copy()])
    for k in range(n):
        piv = k + int(np.argmax(np.abs(M[k:, k])))
        if abs(M[piv, k]) <= tol.zero_tol:
            raise SingularMatrixError(k)
        if piv != k:
            M[[k, piv], :] = M[[piv, k], :]
        factors = M[k + 1 :, k] / M[k, k]
        M[k + 1 :, k:] -= np.outer(factors, M[k, k:])

    X = np.zeros((n, b.shape[1]))
    for k in range(n - 1, -1, -1):
        X[k, :] = (M[k, n:] - M[k, k + 1 : n] @ X[k + 1 :, :]) / M[k, k]

    resid = float(np.max(np.abs(A @ X - b))) if n else 0.0
    bound = tol.residual_tol * max(1.0, float(np.max(np.abs(A)))) * max(
        1.0, float(np.max(np.abs(X))) if X.size else 0.0
    )
    if resid > bound:
        raise ValueError(
            f"solve residual {resid:.3e} exceeds {bound:.3e}; system is near-singular"
        )
    return X[:, 0] if vector_rhs else X


def numeric_rank(M, threshold: float) -> int:
    """Rank of a rectangular matrix by full-pivot elimination.

    Entries are eliminated until the largest remaining magnitude drops to
    `threshold` or below.
    """
    W = np.array(M, dtype=float)
    if W.ndim != 2:
        raise ValueError("numeric_rank expects a 2-d array")
    rank = 0
    while W.shape[0] > 0 and W.shape[1] > 0:
        i, j = np.unravel_index(int(np.argmax(np.abs(W))), W.shape)
        if abs(W[i, j]) <= threshold:
            break
        rank += 1
        W = W - np.outer(W[:, j], W[i, :]) / W[i, j]
        W = np.delete(np.delete(W, i, axis=0), j, axis=1)
    return rank


def read_matrix(source) -> np.ndarray:
    """Parse a matrix from text.

    The first content line holds the order n; the next n lines hold n
    whitespace-separated decimal literals each.  Lines starting with '#'
    are comments.  `source` may be a path, a string of text, or a file
    object.  Raises MatrixParseError with a line number on malformed input.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        text = str(source)
        if "\n" in text or text.strip() == "":
            lines = text.splitlines()
        else:
            with open(text, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()

    content = [
        (idx + 1, line.strip())
        for idx, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not content:
        raise MatrixParseError(1, "no content lines found")

    lineno, head = content[0]
    try:
        n = int(head)
    except ValueError:
        raise MatrixParseError(lineno, f"expected matrix order, got {head!r}") from None
    if n < 1:
        raise MatrixParseError(lineno, f"matrix order must be positive, got {n}")
    if len(content) - 1 < n:
        raise MatrixParseError(
            content[-1][0], f"expected {n} matrix rows, found {len(content) - 1}"
        )
    if len(content) - 1 > n:
        raise MatrixParseError(content[n + 1][0], f"unexpected extra row beyond {n}")

    rows = []
    for lineno, line in content[1 : n + 1]:
        parts = line.split()
        if len(parts) != n:
            raise MatrixParseError(lineno, f"expected {n} entries, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise MatrixParseError(lineno, f"non-numeric entry in row: {line!r}") from None
    A = np.array(rows)
    if not np.all(np.isfinite(A)):
        raise MatrixParseError(content[1][0], "matrix entries must be finite")
    return A


def write_matrix(A, target=None) -> str:
    """Serialize a matrix to the text format accepted by read_matrix.

    Entries are written with repr precision so a round trip is exact.
    Writes to `target` (path or file object) when given; always returns
    the text.
    """
    A = as_matrix(A)
    n = A.shape[0]
    out = io.StringIO()
    out.write(f"{n}\n")
    for row in A:
        out.write(" ".join(f"{x:.17g}" for x in row))
        out.write("\n")
    text = out.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
    return text
