"""The frontier battery: instances at the edge of numerical reach, each with a closed-form answer.

Every case has one rule: the exit code equals the oracle's, or it is 3, an
honest "out of numerical reach".  A wrong and confident answer fails the
case.  Cases that give one today are strict xfails whose reason names the
repro and the direction of the roadmap that mends it, so a fix has to remove
the marker.  Every oracle comes from a closed form or a literal matrix in
this module, never from the package.
"""

import contextlib
import functools
import io
import itertools
import json
from math import comb

import numpy as np
import pytest

from spectralpath.cli import main
from suites import random_instance, write_matrix

EXIT_NUMERICAL = 3

# T has the cycle 0 -> 1 -> 2 -> 0 with ratio 1/2, so no diagonal
# symmetrizes it; its eigenvalues (1 +- sqrt(13))/2 and -1 are distinct.
T = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def _main(argv):
    """Exit code and JSON report (None on exit 3 with no report) of one command line with --json."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _run(tmp_path, A, command, *options):
    path = tmp_path / "matrix.txt"
    write_matrix(A, path)
    return _main([command, str(path), *options])


def _run_scheme(tmp_path, case, *action):
    path = tmp_path / "scheme.txt"
    path.write_text(_scheme_text(*case))
    return _main(["scheme", str(path), *action])


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
_F = "direction F of ROADMAP"


def _similar_path(n, seed):
    """D A D^-1 for a permuted path A and a diagonal D with entries in [1/10, 10]."""
    D = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return D[:, None] * random_instance("permuted_path", n - 1, seed) / D[None, :]


_SEEDS = (0, 1, 2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_shifted_path, id="shift-462"),
        pytest.param(lambda: random_instance("permuted_path", 99, 3), id="order-100"),
        *(pytest.param(lambda n=n, seed=seed: random_instance("permuted_path", n - 1, seed), id=f"order-{n}-{seed}")
          for n in (20, 40) for seed in _SEEDS),
        *(pytest.param(lambda c=c, seed=seed: random_instance("permuted_path", 7, seed) + c * np.eye(8),
                       id=f"shift-{c:g}-{seed}") for c in (10.0, 100.0) for seed in _SEEDS),
        *(pytest.param(lambda n=n, seed=seed: _similar_path(n, seed), id=f"similar-{n}-{seed}")
          for n in (6, 8, 10) for seed in _SEEDS),
    ],
)
def test_analyze_lists_exactly_the_path_ends(tmp_path, build):
    A = build()
    s, t = _path_ends(A)
    code, report = _run(tmp_path, A, "analyze")
    if code == EXIT_NUMERICAL:
        assert report is None or report["verdict"].startswith("sides disagree at ")
        return
    assert code == 0
    listed = {(p["s"], p["t"]) for p in report["result"]["constant_profile_positions"]}
    assert listed == {(s, t), (t, s)}


@pytest.mark.parametrize(
    "alpha",
    [
        1e-4,
        1e-8,
        1e-10,
        pytest.param(1e-20, marks=pytest.mark.xfail(strict=True, reason=(
            f"check --form path --s 2 --t 8 on 1e-20 * random_instance('permuted_path', 11, 5) exits 1: "
            f"every entry is below the absolute zero_tol, so the pattern side fails; {_J} (scale)"))),
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


@pytest.mark.parametrize("alpha", [1e-8, 1e-9])
def test_scaled_distinct_spectrum_is_multiplicity_free(tmp_path, alpha):
    code, report = _run(tmp_path, alpha * T, "analyze")
    if code == EXIT_NUMERICAL:
        return
    assert code == 0
    assert report["result"]["spectral_kind"] == "multiplicity_free"
    root = np.sqrt(13.0)
    expected = alpha * np.array([(1.0 + root) / 2.0, -1.0, (1.0 - root) / 2.0])
    values, counts = zip(*report["result"]["eigenvalues"])
    assert counts == (1, 1, 1)
    assert np.allclose(values, expected, rtol=1e-6, atol=0.0)


def _hamming(n):
    """p^h_ij of H(n, 2): for x, y at distance h, a z that differs from x in a of
    the h places where x and y differ and in b of the other n - h is at distance
    a + b from x and h - a + b from y."""
    p = np.zeros((n + 1,) * 3, dtype=np.int64)
    for h, a, b in itertools.product(range(n + 1), repeat=3):
        if a <= h and b <= n - h:
            p[h, a + b, h - a + b] = comb(h, a) * comb(n - h, b)
    return p


def _johnson(v, k):
    """p^h_ij of J(v, k), relation h meaning |x & y| = k - h: a z meets x & y in a
    points, x - y in b, y - x in c and the rest in e = k - a - b - c."""
    p = np.zeros((k + 1,) * 3, dtype=np.int64)
    for h, a, b, c in itertools.product(range(k + 1), repeat=4):
        e = k - a - b - c
        if a <= k - h and b <= h and c <= h and 0 <= e <= v - k - h:
            p[h, k - a - b, k - a - c] += comb(k - h, a) * comb(h, b) * comb(h, c) * comb(v - k - h, e)
    return p


@functools.cache
def _scheme_text(family, *args):
    """The PTENSOR file of H(n, 2) ("H", n) or J(v, k) ("J", v, k)."""
    p = _hamming(*args) if family == "H" else _johnson(*args)
    k = p[0].diagonal().tolist()
    lines = [f"SCHEME X={sum(k)} D={len(k) - 1} FORM=PTENSOR", "K " + " ".join(map(str, k))]
    for h, block in enumerate(p.tolist()):
        lines += [f"P {h}"] + [" ".join(map(str, row)) for row in block]
    return "\n".join(lines) + "\n"


def _name(case):
    return f"H({case[1]},2)" if case[0] == "H" else f"J({case[1]},{case[2]})"


def _classes(case):
    return case[-1]  # n of H(n, 2), k of J(v, k)


# Q-polynomial under the natural ordering of the eigenspaces, which the
# eigenmatrix convention (rows descending in column 1) puts first to last.
_SCHEMES = [("H", n) for n in (16, 20, 24, 28, 30, 32, 40)] + [
    ("J", v, k) for v, k in ((12, 4), (16, 6), (20, 8), (24, 10), (30, 10), (30, 12), (36, 14), (40, 16),
                             (40, 20), (50, 20))]
_NO_Q_ORDERING = {("H", 20), ("H", 24), ("H", 28), ("J", 24, 10), ("J", 30, 10), ("J", 30, 12)}
_NEGATIVE_KREIN = {("H", 24): -3.9e-4, ("H", 28): -1.9e-3, ("J", 30, 10): -1.7e-5, ("J", 30, 12): -3.3e-3}


def _scheme_cases(failing: dict):
    return [pytest.param(case, id=_name(case), marks=[pytest.mark.xfail(strict=True, reason=(
        f"{failing[case]} on {_name(case)}; {_F}"))] if case in failing else []) for case in _SCHEMES]


@pytest.mark.parametrize("case", _scheme_cases({
    case: "q-poly finds no Q-polynomial structure and exits 1" for case in _NO_Q_ORDERING}))
def test_q_poly_finds_the_natural_ordering(tmp_path, case):
    code, report = _run_scheme(tmp_path, case, "q-poly")
    if code == EXIT_NUMERICAL:
        return
    assert code == 0
    assert list(range(_classes(case) + 1)) in [st["ordering"] for st in report["result"]["structures"]]


@pytest.mark.parametrize("case", _scheme_cases({
    case: f"info exits 0 with krein_min {value:.2g}, where every Krein parameter is a nonnegative integer"
    for case, value in _NEGATIVE_KREIN.items()}))
def test_info_krein_parameters_are_nonnegative(tmp_path, case):
    code, report = _run_scheme(tmp_path, case, "info")
    if code == EXIT_NUMERICAL:
        return
    assert code == 0
    assert report["result"]["krein_min"] >= -1e-6


@pytest.mark.parametrize("case", _scheme_cases({}))
def test_q_check_at_the_natural_end_holds_or_exits_three(tmp_path, case):
    code, _ = _run_scheme(tmp_path, case, "q-check", "1", str(_classes(case)))
    assert code in (0, EXIT_NUMERICAL)
