"""Symmetric association schemes and their polynomial structures.

A scheme on a set X of size |X| is a partition of X x X into d+1 symmetric
relations R_0 (the diagonal), ..., R_d such that the number of z with
(x, z) in R_i and (z, y) in R_j depends only on the relation of (x, y).
Those counts are the intersection numbers p^h_ij.  The scheme can be given
either by explicit 0/1 relation matrices or by the intersection tensor
alone; both forms are validated on construction.

The first eigenmatrix P and second eigenmatrix Q diagonalize the Bose-
Mesner algebra: P rows are the common left eigenvectors of the
intersection matrices B_i (entries p^h_ij), normalized so column 0 is all
ones, with the valency row first; Q = |X| P^{-1}.  The Krein parameters
q^h_ij = |X|^{-1} sum_k P_hk Q_ki Q_kj play the role of intersection
numbers for the entrywise product and define dual intersection matrices.
P- and Q-polynomial orderings are detected from the bidirected-path shape
of B_i and of the dual matrices, and the endpoint characterization checks
compare those orderings against closed-form eigenvalue gap-product ratios.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .digraph import bidirected_path_endpoints, gamma
from .linalg import (
    DEFAULT_TOL, DegenerateSpectrumError, ParseError, SpectralIdentityError, Tolerance, _content_lines,
    _gap_products, _symmetrized_eigh,
)

BUILTIN_SIZE_CAP = 4096


class SchemeValidationError(ValueError):
    """A scheme axiom failed; carries the axiom tag and a witness."""

    def __init__(self, axiom: str, witness, message: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}: {message}")


@dataclass(frozen=True)
class AssociationScheme:
    """Validated symmetric association scheme.

    `relations` holds the 0/1 adjacency matrices when the scheme came from
    explicit relations, and None when only the intersection tensor is
    known.  `p[h, i, j]` is the intersection number p^h_ij; `k` the
    valencies.
    """

    size: int
    d: int
    k: np.ndarray
    p: np.ndarray
    relations: tuple | None = field(default=None, compare=False)


class PolyStructure(NamedTuple):
    """A detected polynomial ordering: generator index, full ordering, last index."""

    generator: int
    ordering: tuple
    last: int


def _relations_p_tensor(mats, labels: np.ndarray, first: np.ndarray):
    """Intersection tensor by exact triple counting, with regularity check.

    p^h_ij is the value of A_i A_j on R_h, which must be the same at every
    pair of R_h; `labels` holds h at every pair of R_h and `first[h]` is the
    flat index of the first pair of R_h.  The caller has checked that every
    relation is symmetric, so A_j A_i = (A_i A_j)^T, every R_h is symmetric,
    and the (j, i) product is regular exactly when the (i, j) one is, with
    p^h_ji = p^h_ij; and A_0 = I makes the i = 0 and j = 0 slices Kronecker
    deltas.  Only the products with 1 <= i <= j < d are formed.  The (i, i)
    ones make every row sum of A_i the constant k_i, so sum_j A_j = J gives
    A_i A_d = k_i J - sum_{j<d} A_i A_j: the j = d slice follows from the
    others and is regular when they are (Brouwer, Cohen and Neumaier,
    *Distance-Regular Graphs*, 2.1).  Hence the first failing (i, j) of the
    full loop over 1 <= i <= j <= d always has j < d, and a failing scheme
    reports the same (h, i, j) witness.

    Every entry of a product, and every partial sum of it, is an integer
    count between 0 and |X|.  float32 holds every integer below 2**24
    exactly, so the products are exact whatever order BLAS sums in.
    |X| < 2**24 always holds here: a larger |X| x |X| relation matrix would
    need at least 2**48 bytes.
    """
    dp1 = len(mats)
    d, size = dp1 - 1, labels.shape[0]
    F = [None] + [m.astype(np.float32) for m in mats[1:d]]
    eye = np.eye(dp1, dtype=np.int64)
    p = np.zeros((dp1, dp1, dp1), dtype=np.int64)
    p[:, 0, :] = eye
    p[:, :, 0] = eye
    for i in range(1, d):
        for j in range(i, d):
            M = F[i] @ F[j]
            vals = M.ravel()[first]
            bad = M != np.take(vals, labels)
            if bad.any():
                h = int(labels[bad].min())
                x, y = divmod(int(np.argmax(bad & (labels == h))), size)
                raise SchemeValidationError(
                    "regularity",
                    (h, i, j),
                    f"triple count at pair ({x}, {y}) differs from {int(vals[h])}",
                )
            p[:, i, j] = p[:, j, i] = vals
    if d:
        k = p[0].diagonal()[:d]  # k_0 .. k_{d-1}; k_d = |X| - sum(k)
        p[:, :d, d] = k - p[:, :d, :d].sum(axis=2)
        p[:, d, :d] = p[:, :d, d]
        p[:, d, d] = size - k.sum() - p[:, d, :d].sum(axis=1)
    return p


def _validate_p_tensor(p: np.ndarray, k: np.ndarray):
    dp1 = p.shape[0]
    if p.shape != (dp1, dp1, dp1):
        raise SchemeValidationError("tensor_shape", p.shape, "intersection tensor must be cubic")
    if np.any(p < 0):
        h, i, j = np.argwhere(p < 0)[0]
        raise SchemeValidationError("nonnegativity", (int(h), int(i), int(j)), "negative count")
    if np.any(k <= 0) or k[0] != 1:
        raise SchemeValidationError("valencies", tuple(int(x) for x in k), "need k_0 = 1, all k_i > 0")
    bad = p[:, 0, :] != np.eye(dp1, dtype=p.dtype)
    if bad.any():
        h, j = np.argwhere(bad)[0]
        raise SchemeValidationError("identity_relation", (int(h), 0, int(j)), "p^h_0j must be the Kronecker delta")
    bad = p[0] != np.diag(k)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SchemeValidationError("diagonal_counts", (0, int(i), int(j)), "p^0_ij must be delta_ij k_i")
    if not np.array_equal(p, p.transpose(0, 2, 1)):
        h, i, j = np.argwhere(p != p.transpose(0, 2, 1))[0]
        raise SchemeValidationError(
            "commutativity", (int(h), int(i), int(j)), "p^h_ij != p^h_ji"
        )
    sums = np.einsum("hij->hi", p)  # sum_j p^h_ij must equal k_i for every h
    bad = sums != k
    if bad.any():
        h, i = np.argwhere(bad)[0]
        raise SchemeValidationError(
            "row_sums", (int(h), int(i)), f"sum_j p^h_ij = {int(sums[h, i])}, expected k_i = {int(k[i])}"
        )
    lhs = k.reshape(dp1, 1, 1) * p
    rhs = lhs.transpose(2, 1, 0)  # k_j p^j_ih indexed by (h, i, j)
    if not np.array_equal(lhs, rhs):
        h, i, j = np.argwhere(lhs != rhs)[0]
        raise SchemeValidationError(
            "valency_balance", (int(h), int(i), int(j)), "k_h p^h_ij != k_j p^j_ih"
        )


def scheme_from_relations(mats) -> AssociationScheme:
    """Build and validate a scheme from explicit 0/1 relation matrices."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise SchemeValidationError("partition", (), "need at least one relation")
    size = mats[0].shape[0]
    cleaned = []
    for i, m in enumerate(mats):
        if m.shape != (size, size):
            raise SchemeValidationError("shape", i, f"relation {i} has shape {m.shape}")
        mi = (m == 1).view(np.int8)
        if not np.array_equal(mi, m):
            raise SchemeValidationError("binary", i, f"relation {i} has entries outside {{0, 1}}")
        cleaned.append(mi)
    if not np.array_equal(cleaned[0], np.eye(size, dtype=np.int8)):
        raise SchemeValidationError("identity_relation", 0, "relation 0 must be the identity")
    dp1 = len(cleaned)
    total = np.zeros((size, size), np.min_scalar_type(dp1))
    labels = np.zeros((size, size), np.min_scalar_type(dp1 - 1))  # sum_h h A_h
    for h, m in enumerate(cleaned):
        total += m.view(bool)
        labels += m.view(np.uint8) * labels.dtype.type(h)
    if not np.all(total == 1):
        x, y = np.argwhere(total != 1)[0]
        raise SchemeValidationError(
            "partition", (int(x), int(y)), f"pair covered {int(total[x, y])} times"
        )
    # the relations partition X x X, so they are all symmetric exactly when
    # the labels are, and R_h is empty exactly when its argmax is not in R_h
    first = np.array([int(np.argmax(m)) for m in cleaned]) if size else None
    if first is None or not np.array_equal(labels, labels.T) or np.any(labels.ravel()[first] != np.arange(dp1)):
        for i, m in enumerate(cleaned):  # the first failing relation
            if not np.array_equal(m, m.T):
                x, y = np.argwhere(m != m.T)[0]
                raise SchemeValidationError("symmetry", (i, int(x), int(y)), "relation not symmetric")
            if not np.any(m):
                raise SchemeValidationError("nonempty", i, "relation is empty")

    p = _relations_p_tensor(cleaned, labels, first)
    k = p[0].diagonal().copy()
    _validate_p_tensor(p, k)
    return AssociationScheme(size=size, d=dp1 - 1, k=k, p=p, relations=tuple(cleaned))


def _int64(x):
    """`x` as an int64 array, and whether that is exact; integers take no float round trip."""
    x = np.asarray(x)
    if np.can_cast(x.dtype, np.int64):
        return x.astype(np.int64), True
    xi = np.rint(x.astype(float)).astype(np.int64)
    return xi, np.array_equal(x, xi)


def scheme_from_p_tensor(p, k) -> AssociationScheme:
    """Build and validate a scheme from its intersection tensor and valencies."""
    pi, exact = _int64(p)
    if pi.ndim != 3 or not exact:
        raise SchemeValidationError("tensor_shape", np.shape(p), "expected an integer cubic tensor")
    ki, exact = _int64(k)
    if ki.shape != pi.shape[:1] or not exact:
        raise SchemeValidationError("valencies", np.shape(k), f"expected {pi.shape[0]} integer valencies")
    size = sum(ki.tolist())  # Python ints: no int64 wrap
    _validate_p_tensor(pi, ki)
    return AssociationScheme(size=size, d=pi.shape[0] - 1, k=ki, p=pi, relations=None)


def builtin_scheme(name: str, n: int) -> AssociationScheme:
    """Built-in families: hypercube(n) (binary Hamming) and complete(n).

    Both come from closed-form intersection numbers (Brouwer, Cohen and
    Neumaier, *Distance-Regular Graphs*, 9.2) through scheme_from_p_tensor;
    no relation matrix is formed.  On {0, 1}^n by Hamming distance, for x, y
    at distance h, a z at distances i = a + b from x and j = h - a + b from y
    differs from x in a of the h places where x and y differ and in b of the
    other n - h.  complete(n) is the 1-class scheme on n points.  Sizes are
    capped at 4096 vertices.
    """
    if name == "hypercube":
        if n < 1 or 2**n > BUILTIN_SIZE_CAP:
            raise ValueError(f"hypercube size 2^{n} outside 2..{BUILTIN_SIZE_CAP}")
        binom = np.array([[comb(x, y) for y in range(n + 1)] for x in range(n + 1)], dtype=np.int64)
        h, i, j = np.ogrid[: n + 1, : n + 1, : n + 1]
        a2, b2 = h + i - j, i + j - h
        counts = binom[h, np.maximum(a2, 0) // 2] * binom[n - h, np.maximum(b2, 0) // 2]
        return scheme_from_p_tensor(np.where((a2 % 2 == 0) & (a2 >= 0) & (b2 >= 0), counts, 0), binom[n])
    if name == "complete":
        if n < 2 or n > BUILTIN_SIZE_CAP:
            raise ValueError(f"complete scheme size {n} outside 2..{BUILTIN_SIZE_CAP}")
        return scheme_from_p_tensor([[[1, 0], [0, n - 1]], [[0, 1], [1, n - 2]]], [1, n - 1])
    raise ValueError(f"unknown builtin scheme {name!r}; expected 'hypercube' or 'complete'")


def krein_parameters(P, Q, size: int) -> np.ndarray:
    """Krein tensor q[h, i, j] = |X|^-1 sum_k P_hk Q_ki Q_kj.

    Substituting A_k = sum_h P_hk E_h into E_i o E_j = |X|^-2 sum_k Q_ki Q_kj A_k
    gives E_i o E_j = |X|^-1 sum_h q^h_ij E_h (Brouwer, Cohen and Neumaier,
    *Distance-Regular Graphs*, chapter 2).
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return np.tensordot(P, Q[:, :, None] * Q[:, None, :], axes=1) / size


@dataclass(frozen=True)
class SchemeEigendata:
    """Eigenmatrices and Krein parameters of a scheme, bitwise the same on every call.

    P rows follow a fixed convention: row 0 is the valency row, the rest
    sort descending by their column-1 entry (then lexicographically).
    `tol` is the Tolerance they were computed and verified with, which the
    detection and endpoint checks on them read; `residuals` records the
    worst violation observed for each verified identity.
    """

    scheme: AssociationScheme
    P: np.ndarray
    Q: np.ndarray
    m: np.ndarray
    q: np.ndarray
    tol: Tolerance
    residuals: dict = field(compare=False)


def eigendata(scheme: AssociationScheme, tol: Tolerance = DEFAULT_TOL) -> SchemeEigendata:
    """Compute P, Q, multiplicities and Krein parameters.

    One fixed random positive combination of the intersection matrices is
    symmetrized by conjugation with diag(sqrt(k)) (the valency balance
    k_h p^h_ij = k_j p^j_ih, checked on construction, makes every B_i
    symmetrizable by the valencies) and diagonalized; left eigenvectors
    normalized at column 0 are the rows of P.  Eigenvalues sharing a run of
    `_symmetrized_eigh`, or a left eigenvector vanishing at column 0, raise
    DegenerateSpectrumError.
    """
    dp1 = scheme.d + 1
    B = scheme.p.transpose(1, 0, 2).astype(float, order="C")  # B[i][h, j] = p^h_ij
    delta = np.sqrt(scheme.k.astype(float))
    # the first draw of the stream earlier releases used by default, kept so
    # that P, Q and q keep their bits; redrawing rescued no scheme (ROADMAP N)
    coeffs = np.random.default_rng([0, 0]).uniform(1.0, 2.0, size=dp1)
    C = np.add.reduce(coeffs[:, None, None] * B, axis=0)  # summed in index order
    w, V, _, cuts = _symmetrized_eigh(C, delta)
    if len(cuts) <= dp1:  # some run holds two eigenvalues
        raise DegenerateSpectrumError(f"random combination has colliding eigenvalues: its smallest gap "
                                      f"{float((w[:-1] - w[1:]).min()):.3e} is not certified")
    U = delta[:, None] * V  # columns are left eigenvectors of C, transposed
    if float(abs(U[0, :]).min()) < 1e-12:
        raise DegenerateSpectrumError("a left eigenvector of the random combination vanishes at column 0")
    rows = (U / U[0, :]).T
    # eigenvalue of the positive combination is maximal exactly on the
    # valency row, so the descending sort puts it first; the others sort
    # descending by their entries from column 1 on, rounded to 9 places
    order = np.zeros(dp1, dtype=np.intp)
    if dp1 > 1:
        order[1:] = np.lexsort(-np.round(rows[1:, :0:-1].T, 9)) + 1
    P = rows[order]
    Q = np.linalg.solve(P, scheme.size * np.eye(dp1))
    m = Q[0, :].copy()
    q = krein_parameters(P, Q, scheme.size)
    residuals = _verify_eigendata(scheme, P, Q, m, q, tol)
    return SchemeEigendata(scheme=scheme, P=P, Q=Q, m=m, q=q, tol=tol, residuals=residuals)


def _verify_eigendata(scheme, P, Q, m, q, tol: Tolerance) -> dict:
    dp1 = scheme.d + 1
    size = scheme.size
    scale = max(1.0, float(size))
    checks = {}

    checks["valency_row"] = float(abs(P[0, :] - scheme.k).max())
    checks["P_column0"] = float(abs(P[:, 0] - 1.0).max())
    checks["Q_column0"] = float(abs(Q[:, 0] - 1.0).max())
    checks["PQ_identity"] = float(abs(P @ Q - size * np.eye(dp1)).max())
    checks["QP_identity"] = float(abs(Q @ P - size * np.eye(dp1)).max())
    checks["multiplicity_sum"] = abs(float(m.sum()) - size)
    checks["krein_symmetry"] = float(abs(q - q.transpose(0, 2, 1)).max())
    # E_i o E_0 = E_i / |X| gives q^h_i0 = delta_hi; summing the entries of
    # E_i o E_j gives q^0_ij = delta_ij m_i
    checks["krein_identity_column"] = float(abs(q[:, :, 0] - np.eye(dp1)).max())
    checks["krein_top_slice"] = float(abs(q[0, :, :] - np.diag(m)).max())
    weighted = m.reshape(dp1, 1, 1) * q  # m_h q^h_ij symmetric under the (h, j) swap
    checks["krein_balance"] = float(abs(weighted - weighted.transpose(2, 1, 0)).max())
    checks["krein_min"] = -min(0.0, float(q.min()))

    bound = tol.residual_tol * scale
    for name in ("valency_row", "P_column0", "Q_column0", "PQ_identity", "QP_identity", "multiplicity_sum"):
        if checks[name] > bound:
            raise SpectralIdentityError(name, checks[name], bound)
    kre_scale = tol.residual_tol * max(1.0, float(abs(q).max())) * scale
    for name in ("krein_symmetry", "krein_identity_column", "krein_top_slice", "krein_balance", "krein_min"):
        if checks[name] > kre_scale:
            raise SpectralIdentityError(name, checks[name], kre_scale)
    if (m <= 0.0).any():
        raise SpectralIdentityError("nonpositive_multiplicity", -float(m.min()), 0.0)
    return checks


def _polynomial_orderings(stack: np.ndarray, tol: Tolerance):
    """Shared path-shape scan behind both detection routines.

    `stack[i]` is the matrix of generator i: B_i, or its dual.  Generator i
    qualifies when the pattern of its matrix is a bidirected path with 0 at
    one end.
    """
    found = []
    for i, order in enumerate(bidirected_path_endpoints(gamma(stack, tol)[1:]), 1):
        if order is None or 0 not in (order[0], order[-1]):
            continue
        path = order if order[0] == 0 else tuple(reversed(order))
        if path[1] != i:
            raise RuntimeError(
                f"ordering for generator {i} starts 0 -> {path[1]}; structural invariant broken"
            )
        found.append(PolyStructure(generator=i, ordering=path, last=path[-1]))
    return tuple(found)


def detect_p_polynomial(scheme: AssociationScheme, tol: Tolerance = DEFAULT_TOL):
    """All relation orderings under which the scheme is P-polynomial.

    A generator relation index i qualifies when the graph of B_i is a
    bidirected path; the ordering starts at 0 and its second entry is
    always i.
    """
    return _polynomial_orderings(scheme.p.transpose(1, 0, 2), tol)


def detect_q_polynomial(ed: SchemeEigendata):
    """All projector orderings under which the scheme is Q-polynomial, at `ed.tol`."""
    return _polynomial_orderings(ed.q.transpose(1, 0, 2), ed.tol)


@dataclass(frozen=True)
class SchemeCharacterizationReport:
    """Two-sided endpoint check for a polynomial structure.

    side_i: a detected structure with the requested generator ends at the
    requested last index.  side_ii: the generator's eigenvalue column is
    multiplicity-free and the last index's dual column equals the
    gap-product ratios f_0(theta_0)/f_i(theta_i).  `equivalent` is derived.
    """

    kind: str
    generator: int
    last: int
    side_i: bool
    side_ii: bool
    theta: np.ndarray
    expected: np.ndarray | None
    actual: np.ndarray
    max_deviation: float | None

    @property
    def equivalent(self) -> bool:
        return self.side_i == self.side_ii


def check_scheme_characterization(ed: SchemeEigendata, kind: str, b: int, c: int) -> SchemeCharacterizationReport:
    """The P- or Q-polynomial endpoint check, generator b ending at c; `kind` is "p" or "q".

    For "p": side_i asks whether the pattern of B_b alone is a bidirected
    path from 0 to c (its structure in `detect_p_polynomial`), and side_ii
    compares row c of Q against f_0(theta_0)/f_i(theta_i) built from the
    eigenvalue column theta_i = P[i, b].  For "q", the dual statement: the
    dual pattern of generator b, theta*_i = Q[i, b] and row c of P.  Read at `ed.tol`.
    """
    if kind == "p":
        tensor, eigen, dual = ed.scheme.p, ed.P, ed.Q
    elif kind == "q":
        tensor, eigen, dual = ed.q, ed.Q, ed.P
    else:
        raise ValueError(f"unknown kind {kind!r}; expected 'p' or 'q'")
    tol = ed.tol
    d = eigen.shape[0] - 1
    if not (1 <= b <= d and 1 <= c <= d):
        raise ValueError(f"indices ({b}, {c}) outside 1..{d}")
    theta, actual = eigen[:, b], dual[c, :]
    order = bidirected_path_endpoints(gamma(tensor[None, :, b], tol))[0]  # generator b's matrix alone
    side_i = order is not None and {order[0], order[-1]} == {0, c}

    expected = None
    max_dev = None
    side_ii = False
    # rounding is monotone, so the closest sorted neighbours give the smallest |theta_i - theta_j|
    srt = np.sort(theta)
    if float((srt[1:] - srt[:-1]).min()) > tol.eig_tol:
        g = _gap_products(theta, tol)
        expected = g[0] / g
        max_dev = float(np.max(np.abs(actual - expected)))
        bound = tol.residual_tol * max(1.0, float(np.max(np.abs(expected))))
        side_ii = max_dev <= bound
    return SchemeCharacterizationReport(
        kind=kind,
        generator=b,
        last=c,
        side_i=side_i,
        side_ii=side_ii,
        theta=theta.copy(),
        expected=expected,
        actual=actual.copy(),
        max_deviation=max_dev,
    )


def _load_p_tensor(lines, n: int):
    """The n x n x n tensor of a PTENSOR body read by one np.loadtxt, or None.

    `lines` are the content lines after the K line.  None unless they are
    exactly the blocks `P 0` .. `P n-1` of n rows each and loadtxt reads
    every row as n int64 values.  On None, read_scheme parses line by line,
    which gives int()'s value for a token loadtxt rejects (such as "0_0") or
    the error of the first bad line.
    """
    if len(lines) != n * (n + 1) or lines[:: n + 1] != [f"P {h}" for h in range(n)]:
        return None
    rows = lines[:]
    del rows[:: n + 1]
    try:
        p = np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    return p.reshape(n, n, n) if p.shape == (n * n, n) else None


def _int64_row(parts, line: int, what: str) -> np.ndarray:
    """The tokens of text line `line` as int64 values, else a ParseError naming it."""
    try:
        return np.array([int(x) for x in parts], dtype=np.int64)
    except ValueError:
        raise ParseError(line, f"non-integer {what}") from None
    except OverflowError:
        raise ParseError(line, f"{what} outside the int64 range") from None


_HEADER_RE = re.compile(r"^SCHEME\s+X=(\d+)\s+D=(\d+)\s+FORM=(RELATIONS|PTENSOR)$")


def read_scheme(source) -> AssociationScheme:
    """Parse a scheme from its text format.

    Header `SCHEME X=<size> D=<d> FORM=<RELATIONS|PTENSOR>`, then either
    d+1 `REL <i>` blocks of |X| rows of 0/1 characters, or a `K` valency
    line plus d+1 `P <h>` blocks of (d+1)x(d+1) integers.  '#' lines are
    comments.  The result is fully validated.
    """
    content, lineno = _content_lines(source)
    if not content:
        raise ParseError(1, "no content lines found")

    match = _HEADER_RE.match(content[0])
    if not match:
        raise ParseError(lineno(0), f"bad header {content[0]!r}")
    size, d, form = int(match.group(1)), int(match.group(2)), match.group(3)
    pos = 1

    def take():
        nonlocal pos
        if pos >= len(content):
            raise ParseError(lineno(len(content) - 1), "unexpected end of file")
        pos += 1
        return content[pos - 1]

    if form == "RELATIONS":
        mats = []
        for i in range(d + 1):
            line = take()
            if line != f"REL {i}":
                raise ParseError(lineno(pos - 1), f"expected 'REL {i}', got {line!r}")
            rows = content[pos : pos + size]
            block = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
            # '0' and '1' are the only bytes b with b | 1 == ord("1")
            if len(rows) < size or set(map(len, rows)) != {size} or np.any((block | 1) != ord("1")):
                for _ in range(size):  # name the first bad line
                    line = take()
                    if len(line) != size or line.strip("01"):
                        raise ParseError(lineno(pos - 1), f"expected {size} characters of 0/1")
            pos += size
            mats.append((block == ord("1")).view(np.int8).reshape(size, size))
        if pos != len(content):
            raise ParseError(lineno(pos), "unexpected trailing content")
        scheme = scheme_from_relations(mats)
    else:
        line = take()
        parts = line.split()
        if parts[:1] != ["K"] or len(parts) != d + 2:
            raise ParseError(lineno(pos - 1), f"expected 'K' line with {d + 1} valencies")
        k = _int64_row(parts[1:], lineno(pos - 1), "valency")
        p = _load_p_tensor(content[pos:], d + 1)
        if p is None:
            rows = []  # the tensor is allocated only once every row has been read
            for h in range(d + 1):
                line = take()
                if line != f"P {h}":
                    raise ParseError(lineno(pos - 1), f"expected 'P {h}', got {line!r}")
                for i in range(d + 1):
                    parts = take().split()
                    if len(parts) != d + 1:
                        raise ParseError(lineno(pos - 1), f"expected {d + 1} integers")
                    rows.append(_int64_row(parts, lineno(pos - 1), "intersection number"))
            if pos != len(content):
                raise ParseError(lineno(pos), "unexpected trailing content")
            p = np.array(rows).reshape(d + 1, d + 1, d + 1)
        scheme = scheme_from_p_tensor(p, k)
    if scheme.size != size or scheme.d != d:
        raise ParseError(
            lineno(0),
            f"header says X={size} D={d}, content gives X={scheme.size} D={scheme.d}",
        )
    return scheme

