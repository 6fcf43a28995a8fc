"""Tolerances, matrix validation and the plain-text matrix format.

Everything downstream works with square matrices of double-precision reals.
`Tolerance` carries the three thresholds the checks share, `as_matrix`
validates an input into a float64 square matrix, and `read_matrix` /
`write_matrix` convert the text format.  The linear algebra itself (LAPACK
`eigh`, `eig`, `solve` and SVD rank) is called through numpy where it is
needed, in :mod:`spectralpath.spectra` and :mod:`spectralpath.schemes`.
"""

from __future__ import annotations

import io
from itertools import chain
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "read_matrix",
    "write_matrix",
    "ParseError",
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


class ParseError(ValueError):
    """Malformed matrix or scheme text, carrying the 1-based line number."""

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
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
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
    return _write_text(out.getvalue(), target)


def _write_text(text: str, target) -> str:
    """Write `text` to `target` (path or file object) unless it is None; return `text`."""
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
    return text
