"""The frontier battery: instances at the edge of numerical reach, each with a closed-form answer.

Every case has one rule: the exit code equals the oracle's, or it is 3, an
honest "out of numerical reach".  A wrong and confident answer fails the
case.  Cases that give one today are strict xfails whose reason names the
repro and the direction of the roadmap that mends it, so a fix has to remove
the marker.  Every oracle comes from a closed form or a literal matrix in
this module, never from the package.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from spectralpath.cli import main
from suites import random_instance, write_matrix

EXIT_NUMERICAL = 3

# T has the cycle 0 -> 1 -> 2 -> 0 with ratio 1/2, so no diagonal
# symmetrizes it; its eigenvalues (1 +- sqrt(13))/2 and -1 are distinct.
T = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def _run(tmp_path, A, command, *options):
    """Exit code and JSON report (None on exit 3 with no report) of one command on `A`."""
    path = tmp_path / "matrix.txt"
    write_matrix(A, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *options, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _path_ends(A) -> tuple:
    """The ends of the literal off-diagonal pattern of `A`, which must be a bidirected path."""
    off = (A != 0.0) & ~np.eye(len(A), dtype=bool)
    assert (off == off.T).all()
    order = [int(np.argmax(off.sum(axis=1) == 1))]
    while len(order) < len(A):  # each step has one way on
        (step,) = set(np.flatnonzero(off[order[-1]]).tolist()) - set(order)
        order.append(step)
    assert off.sum() == 2 * (len(A) - 1)
    return order[0], order[-1]


def _shifted_path():
    A = random_instance("permuted_path", 3, 1) + 462.0 * np.eye(4)
    # the literal pattern: the path 0 - 2 - 3 - 1
    assert np.argwhere((A != 0.0) & ~np.eye(4, dtype=bool)).tolist() == [
        [0, 2], [1, 3], [2, 0], [2, 3], [3, 1], [3, 2]]
    return A


_J = "direction J of ROADMAP"


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_shifted_path, marks=pytest.mark.xfail(strict=True, reason=(
            f"random_instance('permuted_path', 3, 1) + 462 I lists only (1, 0) and exits 0: the profile "
            f"threshold grows with the shift, the profile does not; {_J} (shift)")), id="shift-462"),
        pytest.param(lambda: random_instance("permuted_path", 99, 3), marks=pytest.mark.xfail(strict=True, reason=(
            f"random_instance('permuted_path', 99, 3) finds the path order, lists no position and "
            f"exits 0: the threshold max|A|^(n-1) outgrows the profile; {_J} (scale)")), id="order-100"),
    ],
)
def test_analyze_lists_exactly_the_path_ends(tmp_path, build):
    A = build()
    s, t = _path_ends(A)
    code, report = _run(tmp_path, A, "analyze")
    if code == EXIT_NUMERICAL:
        return
    assert code == 0
    listed = {(p["s"], p["t"]) for p in report["result"]["constant_profile_positions"]}
    assert listed == {(s, t), (t, s)}


@pytest.mark.parametrize(
    "alpha",
    [
        1e-4,
        1e-8,
        *(pytest.param(a, marks=pytest.mark.xfail(strict=True, reason=(
            f"check --form path --s 2 --t 8 on {a:g} * random_instance('permuted_path', 11, 5) exits 1: "
            f"every entry is below the absolute zero_tol, so the pattern side fails; {_J} (scale)")))
          for a in (1e-10, 1e-20)),
    ],
)
def test_scaled_path_ends_hold_or_exit_three(tmp_path, alpha):
    # scaling a matrix changes neither its pattern nor the constancy of a profile
    A = random_instance("permuted_path", 11, 5)
    assert _path_ends(A) == (2, 8)
    code, _ = _run(tmp_path, alpha * A, "check", "--form", "path", "--s", "2", "--t", "8")
    assert code in (0, EXIT_NUMERICAL)


def test_hessenberg_far_corner_holds_or_exits_three(tmp_path):
    # A = S + E: S symmetric tridiagonal (diagonal 0..7, neighbours 0.3), E
    # the one arc 0 -> 2 of weight 0.3.  S's eigenvalues lie more than 0.6
    # apart, and E moves each by at most |E| = 0.3 (Bauer-Fike, S normal), so
    # each disc keeps one eigenvalue, real since A is: the spectrum is real and
    # multiplicity-free.  The subdiagonal walk 7 -> 0 has length n - 1, and no
    # arc skips down.  Both sides hold: exit 0.
    n = 8
    S = np.diag(np.arange(float(n))) + np.diag([0.3] * (n - 1), 1) + np.diag([0.3] * (n - 1), -1)
    assert np.diff(np.linalg.eigvalsh(S)).min() > 2 * 0.3
    A = S.copy()
    A[0, 2] = 0.3
    code, _ = _run(tmp_path, A, "check", "--form", "distance", "--s", "7", "--t", "0")
    assert code in (0, EXIT_NUMERICAL)


@pytest.mark.xfail(strict=True, reason=(
    f"analyze on 1e-8 * T says diagonalizable_not_mf: its eigenvalue gaps, about 3e-9, are below the "
    f"absolute eig_tol; {_J} (scale)"))
def test_scaled_distinct_spectrum_is_multiplicity_free(tmp_path):
    code, report = _run(tmp_path, 1e-8 * T, "analyze")
    if code == EXIT_NUMERICAL:
        return
    assert code == 0
    assert report["result"]["spectral_kind"] == "multiplicity_free"
