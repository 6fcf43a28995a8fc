"""Tolerances and matrix text I/O, plus the numpy routes the package leans
on: `eigh` behind the symmetric route of `classify`, the rank test of its
`eig` route, and the solve that gives a scheme's second eigenmatrix."""

import io
import math

import numpy as np
import pytest

from spectralpath.linalg import (
    DEFAULT_TOL,
    ParseError,
    Tolerance,
    _content_lines,
    as_matrix,
    read_matrix,
    write_matrix,
)
from spectralpath.schemes import builtin_scheme, eigendata, read_scheme
from spectralpath.spectra import SpectralKind, classify

# second eigenmatrix of the 3-cube; squares to 8 I
P_CUBE3 = np.array(
    [
        [1.0, 3.0, 3.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
        [1.0, -3.0, 3.0, -1.0],
    ]
)


def test_tolerance_defaults():
    assert DEFAULT_TOL.zero_tol == 1e-10
    assert DEFAULT_TOL.eig_tol == 1e-8
    assert DEFAULT_TOL.residual_tol == 1e-8


def test_tolerance_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        Tolerance(zero_tol=-1e-12)
    with pytest.raises(ValueError):
        Tolerance(eig_tol=float("nan"))
    with pytest.raises(ValueError):
        Tolerance(residual_tol=float("inf"))


def test_as_matrix_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, float("inf")], [0.0, 1.0]])
    M = as_matrix([[1, 2], [3, 4]])
    assert M.dtype == np.float64


def _symmetric_spectrum(A):
    out = classify(A)
    assert out.kind is SpectralKind.MULTIPLICITY_FREE
    return out.spectrum


def test_sym_eigen_two_by_two_exchange():
    sp = _symmetric_spectrum(np.array([[0.0, 4.0], [4.0, 0.0]]))
    assert np.allclose(sp.theta, [4.0, -4.0], atol=1e-12)
    r = 1.0 / math.sqrt(2.0)
    # eigenvectors defined up to sign
    assert np.allclose(np.abs(sp.X[:, 0]), [r, r], atol=1e-12)
    assert np.allclose(np.abs(sp.X[:, 1]), [r, r], atol=1e-12)
    assert np.allclose(np.outer(sp.X[:, 0], sp.Yt[0, :]), np.full((2, 2), 0.5), atol=1e-12)


def test_sym_eigen_path_of_three_vertices():
    S = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    sp = _symmetric_spectrum(S)
    assert np.allclose(sp.theta, [math.sqrt(2.0), 0.0, -math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(sp.X.T @ sp.X, np.eye(3), atol=1e-12)


def test_sym_eigen_descending_order_and_reconstruction_random():
    # D S D^-1 with S symmetric: classify finds the symmetrizer, runs eigh on
    # the symmetrized matrix and maps the eigenvectors back through D
    rng = np.random.default_rng(20240811)
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(6):
            S = rng.normal(size=(n, n))
            S = S + S.T
            delta = rng.uniform(0.5, 2.0, size=n)
            A = S * delta[:, None] / delta[None, :]
            sp = _symmetric_spectrum(A)
            assert np.all(np.diff(sp.theta) < 0)
            recon = (sp.X * sp.theta[None, :]) @ sp.Yt
            assert np.allclose(recon, A, atol=1e-11 * max(1.0, np.max(np.abs(A))))
            assert np.allclose(sp.Yt @ sp.X, np.eye(n), atol=1e-11)


def test_sym_eigen_matches_reference_eigensolver():
    rng = np.random.default_rng(7)
    for n in (2, 4, 9):
        for _ in range(5):
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            ref = np.sort(np.linalg.eigvalsh(S))[::-1]
            assert np.allclose(
                _symmetric_spectrum(S).theta, ref, atol=1e-10 * max(1.0, np.max(np.abs(S)))
            )


def test_numeric_rank_basic_cases():
    # the eig route counts eigenvector directions of a repeated eigenvalue
    # mu as n - rank(A - mu I); the rank-defect list reports the missing ones
    def defects(A):
        out = classify(np.array(A, dtype=float))
        return out.kind, out.rank_defects

    nilpotent_plus_zero = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert defects(nilpotent_plus_zero) == (SpectralKind.NOT_DIAGONALIZABLE, ((0.0, 1),))
    jordan3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    kind, found = defects(jordan3)
    assert kind is SpectralKind.NOT_DIAGONALIZABLE
    assert [(round(mu, 6), k) for mu, k in found] == [(1.0, 2)]
    two_blocks = [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]
    kind, found = defects(two_blocks)
    assert [(round(mu, 6), k) for mu, k in found] == [(2.0, 2)]
    # eigenvalue 1 twice with two directions: repeated but diagonalizable
    assert defects([[1, 0, 1], [0, 1, 0], [0, 0, 2]]) == (SpectralKind.DIAGONALIZABLE_NOT_MF, ())


def test_solve_inverse_of_cube_eigenmatrix():
    # P^2 = 8 I for the 3-cube, so Q = 8 P^-1 must reproduce P itself
    ed = eigendata(builtin_scheme("hypercube", 3))
    assert np.allclose(ed.P, P_CUBE3, atol=1e-12)
    assert np.allclose(ed.Q, P_CUBE3, atol=1e-12)


def test_read_matrix_from_text_with_comments():
    text = "# adjacency of a 3-path\n3\n0 1 0\n\n1 0 1\n0 1 0\n"
    A = read_matrix(text)
    assert A.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


def test_read_matrix_from_file_and_file_object(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n3 4\n")
    assert read_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with open(path) as fh:
        assert read_matrix(fh).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_matrix_error_line_numbers():
    with pytest.raises(ParseError) as info:
        read_matrix("")
    assert info.value.lineno == 1
    with pytest.raises(ParseError) as info:
        read_matrix("x\n1\n")
    assert info.value.lineno == 1
    with pytest.raises(ParseError) as info:
        read_matrix("0\n")
    assert info.value.lineno == 1
    with pytest.raises(ParseError) as info:
        read_matrix("2\n1 2\n")  # one row missing
    assert info.value.lineno == 2
    with pytest.raises(ParseError) as info:
        read_matrix("1\n5\n6\n")  # one row too many
    assert info.value.lineno == 3
    with pytest.raises(ParseError) as info:
        read_matrix("2\n1 2 3\n4 5\n")
    assert info.value.lineno == 2
    with pytest.raises(ParseError) as info:
        read_matrix("2\n1 2\n3 four\n")
    assert info.value.lineno == 3
    with pytest.raises(ParseError):
        read_matrix("1\n1e999\n")  # overflows to inf


def reference_matrix_body(text: str):
    """The matrix body read row by row with float() per token; the reference for read_matrix.

    Returns the matrix, or the (line number, message) of the ParseError it
    should raise.  The order line and row count are taken as valid.
    """
    content, lineno = _content_lines(text)
    n = int(content[0])
    rows = []
    for r, line in enumerate(content[1 : n + 1], 1):
        parts = line.split()
        if len(parts) != n:
            return lineno(r), f"expected {n} entries, found {len(parts)}"
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            return lineno(r), f"non-numeric entry in row: {line!r}"
    for r, row in enumerate(rows, 1):
        if not np.all(np.isfinite(row)):
            return lineno(r), "matrix entries must be finite"
    return np.array(rows)


_TOKENS = ["1", "0", "-2.5", "+.5", "1e-3", "1_0", "1__0", "_1", "nan", "-inf", "infinity",
           "0x1", "\u0661\u0662", "\u0663.\u0665", "1e999", "-1e-400", "abc", "1.5.2", "--1", "1e"]


def test_read_matrix_token_fuzz_matches_per_token_float():
    # value, or ParseError line and message, as the per-token float() rule gives
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(1500):
        n = int(rng.integers(1, 5))
        lines = [str(n)]
        for _ in range(n):
            width = n + int(rng.choice([0, 0, 0, 0, -1, 1])) if rng.random() < 0.3 else n
            weights = [6.0] * 5 + [1.0] * (len(_TOKENS) - 5)
            picks = rng.choice(len(_TOKENS), size=max(width, 1), p=np.array(weights) / sum(weights))
            lines.append(" ".join(_TOKENS[i] for i in picks))
            if rng.random() < 0.1:
                lines.append(rng.choice(["# comment", "", "   "]))
        text = "\n".join(lines) + "\n"
        expected = reference_matrix_body(text)
        try:
            got = read_matrix(text)
        except ParseError as exc:
            assert isinstance(expected, tuple), text
            assert (exc.lineno, str(exc)) == (expected[0], f"line {expected[0]}: {expected[1]}"), text
            outcomes.add(expected[1].split(" ")[0])
        else:
            assert not isinstance(expected, tuple), text
            assert np.array_equal(got, expected) and got.dtype == np.float64, text
            outcomes.add("value")
    assert outcomes == {"value", "expected", "non-numeric", "matrix"}


# Every text below starts with the same four lines of comments and blanks,
# and has a comment or blank line inside its body, so line N counts them.
_LEAD = "# leading comment\n\n   \n  # indented comment\n"
_REL = "SCHEME X=2 D=1 FORM=RELATIONS\nREL 0\n10\n# between rows\n01\n\nREL 1\n"
_PT = "SCHEME X=2 D=1 FORM=PTENSOR\nK 1 1\n\nP 0\n1 0\n0 1\n# slice 1\n"


@pytest.mark.parametrize(
    "reader, body, lineno, message",
    [
        (read_matrix, "2\n# row 0\n1 2\n3\n", 8, "expected 2 entries, found 1"),
        (read_matrix, "2\n1 2\n\n3 x\n", 8, "non-numeric entry in row: '3 x'"),
        (read_matrix, "2\n1 2\n\n3 4\n5 6\n", 9, "unexpected extra row beyond 2"),
        (read_matrix, "2\n\n1 2\n", 7, "expected 2 matrix rows, found 1"),
        (read_matrix, "3\n0 1 0\n1 0 1\n# row 2\n0 1 inf\n", 9, "matrix entries must be finite"),
        (read_scheme, _REL + "0\n10\n", 12, "expected 2 characters of 0/1"),
        (read_scheme, _REL + "01\n12\n", 13, "expected 2 characters of 0/1"),
        (read_scheme, _REL + "01\n10\n\nREL 2\n", 15, "unexpected trailing content"),
        (read_scheme, _PT + "0 1\n1 0\n", 12, "expected 'P 1', got '0 1'"),
        (read_scheme, _PT + "P 1\n0 1\n1 0.5\n", 14, "non-integer intersection number"),
        (read_scheme, _PT + "P 1\n0 1\n1 0\n# end\nP 2\n", 16, "unexpected trailing content"),
    ],
    ids=["short-row", "bad-entry", "matrix-extra", "matrix-missing", "non-finite", "short-rel-row",
         "bad-digit", "rel-extra", "missing-P-header", "non-integer", "ptensor-extra"],
)
def test_readers_number_lines_alike(reader, body, lineno, message):
    with pytest.raises(ParseError) as info:
        reader(_LEAD + body)
    assert (info.value.lineno, str(info.value)) == (lineno, f"line {lineno}: {message}")


@pytest.mark.parametrize("reader", [read_matrix, read_scheme])
@pytest.mark.parametrize("text", ["", "   "])
def test_blank_string_is_text_not_a_path(reader, text):
    with pytest.raises(ParseError) as info:
        reader(text)
    assert str(info.value) == "line 1: no content lines found"


def test_write_matrix_round_trip_exact():
    rng = np.random.default_rng(5150)
    for n in (1, 2, 5):
        A = rng.normal(size=(n, n))
        A[0, 0] = 1.0 / 3.0
        text = write_matrix(A)
        assert np.array_equal(read_matrix(text), A)


def test_write_matrix_to_path_and_object(tmp_path):
    A = np.array([[1.5, -2.0], [0.0, 4.0]])
    path = tmp_path / "out.txt"
    write_matrix(A, str(path))
    assert np.array_equal(read_matrix(str(path)), A)
    buf = io.StringIO()
    write_matrix(A, buf)
    assert np.array_equal(read_matrix(buf.getvalue()), A)
