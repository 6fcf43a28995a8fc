"""Tolerances, matrix validation, the plain-text matrix format and what both sides share.

Everything downstream works with square matrices of double-precision reals.
`Tolerance` carries the three thresholds the checks share, `as_matrix`
validates an input into a float64 square matrix, and `read_matrix` reads
the text format.  The matrix side
(:mod:`spectralpath.spectra`) and the scheme side
(:mod:`spectralpath.schemes`) share the two numerical errors, the
symmetrized eigensolve and the eigenvalue gap products defined here, so
neither imports the other.  The rest of the linear algebra (LAPACK `eig`,
`solve` and SVD rank) is called through numpy where it is needed, in those
two modules.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np


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
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")


DEFAULT_TOL = Tolerance()


class ParseError(ValueError):
    """Malformed matrix or scheme text, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class SpectralIdentityError(RuntimeError):
    """A verified identity failed: a matrix's spectral projectors, or a scheme's eigendata.

    A numerical failure: the input was valid, but the computed spectral
    objects came out beyond the residual bound.
    """

    def __init__(self, which: str, residual: float, bound: float):
        self.which = which
        self.residual = residual
        self.bound = bound
        super().__init__(
            f"spectral identity {which!r} violated: residual {residual:.3e} > {bound:.3e}"
        )


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalues too close to tell apart or to merge at working precision.

    Also raised when random combinations of a scheme's intersection matrices keep
    producing colliding eigenvalues, and when a gap product or profile threshold overflows.
    """


def _gap_products(theta: np.ndarray, tol: Tolerance) -> np.ndarray:
    """prod_{j != i} (theta_i - theta_j) for each i, with the underflow and overflow guards."""
    diff = theta[:, None] - theta[None, :]
    np.fill_diagonal(diff, 1.0)
    try:
        with np.errstate(over="raise"):
            g = diff.prod(axis=1)
    except FloatingPointError:
        raise DegenerateSpectrumError("gap products overflow the float range; eigenvalues spread too far") from None
    d = len(theta) - 1
    if d >= 1:
        small = np.flatnonzero(np.abs(g) < max(tol.eig_tol**d, 5e-324))
        if small.size:
            i = int(small[0])
            raise DegenerateSpectrumError(
                f"gap product at index {i} underflowed ({g[i]:.3e}); eigenvalues nearly coincide"
            )
    return g


def _symmetrized_eigh(C: np.ndarray, delta: np.ndarray):
    """Descending eigenvalues w and orthonormal eigenvectors V (column i for w[i]) of D C D^-1, D = diag(delta).

    `eigh` reads the symmetric part, which is D C D^-1 itself when D symmetrizes C.
    """
    S = C * delta[:, None] / delta[None, :]
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return w[::-1], V[:, ::-1]


def as_matrix(A) -> np.ndarray:
    """Copy `A` into a float64 square matrix, validating shape and finiteness."""
    M = np.array(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must all be finite")
    return M


def _content_lines(source):
    """The stripped lines of a text source that are neither blank nor '#' comments.

    `source` is a file object, a string of text (any string with a newline,
    and a blank one) or a path.  Returns the lines with
    a function from a position among them to its 1-based line number, for
    error messages.  The index list behind it is built only when the text
    has a blank line or a '#' somewhere.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text and text.strip():
            with open(text, "rb") as fh:  # bytes, decoded once: faster than a text-mode read
                text = fh.read().decode("utf-8")
    lines = list(map(str.strip, text.splitlines()))
    if "#" not in text and "" not in lines:
        return lines, lambda pos: pos + 1
    keep = [idx for idx, line in enumerate(lines) if line and line[0] != "#"]
    return [lines[idx] for idx in keep], lambda pos: keep[pos] + 1


def read_matrix(source) -> np.ndarray:
    """Parse a matrix from text.

    The first content line holds the order n; the next n lines hold n
    whitespace-separated decimal literals each.  Lines starting with '#'
    are comments.  `source` may be a path, a string of text, or a file
    object.  Raises ParseError with a line number on malformed input.
    """
    content, lineno = _content_lines(source)
    if not content:
        raise ParseError(1, "no content lines found")

    head = content[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(lineno(0), f"expected matrix order, got {head!r}") from None
    if n < 1:
        raise ParseError(lineno(0), f"matrix order must be positive, got {n}")
    if len(content) - 1 < n:
        raise ParseError(
            lineno(len(content) - 1), f"expected {n} matrix rows, found {len(content) - 1}"
        )
    if len(content) - 1 > n:
        raise ParseError(lineno(n + 1), f"unexpected extra row beyond {n}")

    rows = [line.split() for line in content[1:]]
    try:  # the whole body in one float() pass
        if set(map(len, rows)) != {n}:
            raise ValueError
        A = np.fromiter(map(float, chain.from_iterable(rows)), float, n * n).reshape(n, n)
    except ValueError:
        for r, parts in enumerate(rows, 1):  # name the first bad line
            if len(parts) != n:
                raise ParseError(lineno(r), f"expected {n} entries, found {len(parts)}") from None
            try:
                list(map(float, parts))
            except ValueError:
                raise ParseError(lineno(r), f"non-numeric entry in row: {content[r]!r}") from None
    finite = np.isfinite(A).all(axis=1)
    if not finite.all():
        raise ParseError(lineno(1 + int(np.argmin(finite))), "matrix entries must be finite")
    return A

