"""Kernel-level checks: symmetric eigensolver wrapper, elimination, matrix text I/O."""

import io
import math

import numpy as np
import pytest

from spectralpath.linalg import (
    DEFAULT_TOL,
    MatrixParseError,
    SingularMatrixError,
    Tolerance,
    as_matrix,
    multiply,
    numeric_rank,
    read_matrix,
    solve,
    sym_eigen,
    write_matrix,
)

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


def test_multiply_checks_dimensions():
    with pytest.raises(ValueError):
        multiply(np.eye(2), np.eye(3))
    out = multiply([[1.0, 2.0], [0.0, 1.0]], [[1.0], [1.0]])
    assert out.tolist() == [[3.0], [1.0]]


def test_sym_eigen_two_by_two_exchange():
    w, V = sym_eigen(np.array([[0.0, 4.0], [4.0, 0.0]]))
    assert np.allclose(w, [4.0, -4.0], atol=1e-12)
    r = 1.0 / math.sqrt(2.0)
    # eigenvectors defined up to sign
    assert np.allclose(np.abs(V[:, 0]), [r, r], atol=1e-12)
    assert np.allclose(np.abs(V[:, 1]), [r, r], atol=1e-12)
    assert np.allclose(V @ np.diag(w) @ V.T, [[0.0, 4.0], [4.0, 0.0]], atol=1e-12)


def test_sym_eigen_path_of_three_vertices():
    S = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    w, V = sym_eigen(S)
    assert np.allclose(w, [math.sqrt(2.0), 0.0, -math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)


def test_sym_eigen_descending_order_and_reconstruction_random():
    rng = np.random.default_rng(20240811)
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(6):
            S = rng.normal(size=(n, n))
            S = S + S.T
            w, V = sym_eigen(S)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.allclose(V @ np.diag(w) @ V.T, S, atol=1e-11 * max(1.0, np.max(np.abs(S))))
            assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)


def test_sym_eigen_matches_reference_eigensolver():
    rng = np.random.default_rng(7)
    for n in (2, 4, 9):
        for _ in range(5):
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            w, _ = sym_eigen(S)
            ref = np.sort(np.linalg.eigvalsh(S))[::-1]
            assert np.allclose(w, ref, atol=1e-10 * max(1.0, np.max(np.abs(S))))


def test_sym_eigen_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_solve_vector_and_matrix_right_hand_sides():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve(A, np.array([3.0, 4.0]))
    assert x.shape == (2,)
    assert np.allclose(A @ x, [3.0, 4.0], atol=1e-12)
    X = solve(A, np.eye(2))
    assert np.allclose(A @ X, np.eye(2), atol=1e-12)


def test_solve_inverse_of_cube_eigenmatrix():
    # P^2 = 8 I, so solving P X = 8 I must reproduce P itself
    X = solve(P_CUBE3, 8.0 * np.eye(4))
    assert np.allclose(X, P_CUBE3, atol=1e-12)


def test_solve_reports_dead_pivot_column():
    with pytest.raises(SingularMatrixError) as info:
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    assert info.value.pivot_index == 1
    with pytest.raises(SingularMatrixError) as info:
        solve(np.zeros((2, 2)), np.array([1.0, 0.0]))
    assert info.value.pivot_index == 0


def test_solve_random_systems_round_trip():
    rng = np.random.default_rng(99)
    for n in (1, 3, 6, 10):
        for _ in range(5):
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            x_true = rng.normal(size=n)
            x = solve(A, A @ x_true)
            assert np.allclose(x, x_true, atol=1e-9 * max(1.0, np.max(np.abs(x_true))))


def test_numeric_rank_basic_cases():
    assert numeric_rank(np.zeros((3, 3)), 1e-12) == 0
    assert numeric_rank(np.eye(4), 1e-12) == 4
    u = np.array([1.0, 2.0, 3.0])
    assert numeric_rank(np.outer(u, u), 1e-10) == 1
    M = np.array([[1.0, 0.0], [0.0, 1e-13]])
    assert numeric_rank(M, 1e-10) == 1
    assert numeric_rank(M, 1e-15) == 2


def test_numeric_rank_rectangular():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert numeric_rank(M, 1e-10) == 1


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
    with pytest.raises(MatrixParseError) as info:
        read_matrix("")
    assert info.value.lineno == 1
    with pytest.raises(MatrixParseError) as info:
        read_matrix("x\n1\n")
    assert info.value.lineno == 1
    with pytest.raises(MatrixParseError) as info:
        read_matrix("0\n")
    assert info.value.lineno == 1
    with pytest.raises(MatrixParseError) as info:
        read_matrix("2\n1 2\n")  # one row missing
    assert info.value.lineno == 2
    with pytest.raises(MatrixParseError) as info:
        read_matrix("1\n5\n6\n")  # one row too many
    assert info.value.lineno == 3
    with pytest.raises(MatrixParseError) as info:
        read_matrix("2\n1 2 3\n4 5\n")
    assert info.value.lineno == 2
    with pytest.raises(MatrixParseError) as info:
        read_matrix("2\n1 2\n3 four\n")
    assert info.value.lineno == 3
    with pytest.raises(MatrixParseError):
        read_matrix("1\n1e999\n")  # overflows to inf


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
