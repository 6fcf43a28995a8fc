"""Pinned-seed checks at orders 13-31, through the command line and the cofactor residuals.

These orders are past where projectors from the product formula and
eigenvalues from the characteristic polynomial stopped being reliable.
Instances are kept well posed: eigenvalue gaps of at least 1e-3, and
endpoint values at least 100 times residual_tol * max|A|^d (an absolute
bound; the package's constancy test is relative to each profile), so a
failure here is the spectral route's own.
"""

import json
from math import prod

import numpy as np
import pytest

from spectralpath.cli import main
from spectralpath.equivalence import analyze_matrix
from suites import spectrum_identity_residuals, write_matrix

RESIDUAL_TOL = 1e-8
REL = 1e-6


def _well_posed(A, values, lam) -> bool:
    threshold = RESIDUAL_TOL * float(np.max(np.abs(A))) ** (A.shape[0] - 1)
    gaps = np.diff(np.sort(lam))
    return float(np.min(gaps)) >= 1e-3 and min(values) >= 100 * threshold


def permuted_path(rng, n):
    """Relabeled tridiagonal matrix: (A, path order, {endpoint position: path product})."""
    while True:
        T = np.diag(rng.uniform(0.0, 2.0, n))
        up, lo = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
        T[np.arange(n - 1), np.arange(1, n)] = up
        T[np.arange(1, n), np.arange(n - 1)] = lo
        perm = rng.permutation(n)
        A = T[np.ix_(perm, perm)]
        order = tuple(int(i) for i in np.argsort(perm))
        value = {(order[0], order[-1]): prod(up), (order[-1], order[0]): prod(lo)}
        if _well_posed(A, value.values(), np.linalg.eigvals(A).real):
            return A, order, value


def real_hessenberg(rng, n):
    """Non-symmetrizable Hessenberg matrix with real spectrum: (A, subdiagonal product)."""
    while True:
        A = np.diag(rng.uniform(0.0, 2.0, n))
        A[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.5, 2.0, n - 1)
        sub = rng.uniform(0.5, 2.0, n - 1)
        A[np.arange(1, n), np.arange(n - 1)] = sub
        far = np.triu(np.ones((n, n), dtype=bool), 2) & (rng.random((n, n)) < 0.15)
        A[far] = rng.uniform(0.01, 0.05, int(far.sum()))
        lam = np.linalg.eigvals(A)
        if far.any() and np.all(lam.imag == 0.0) and _well_posed(A, [prod(sub)], lam.real):
            return A, prod(sub)


def _run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out.strip() else None), out.err


@pytest.mark.parametrize("n", [16, 18, 20, 22])
def test_analyze_permuted_path_constant_only_at_endpoints(capsys, tmp_path, n):
    A, order, value = permuted_path(np.random.default_rng([2010, n]), n)
    f = tmp_path / "path.txt"
    write_matrix(A, str(f))
    code, rep, err = _run_json(capsys, "analyze", str(f))
    assert code == 0, err
    result = rep["result"]
    assert tuple(result["path_order"]) in (order, order[::-1])
    assert result["spectral_kind"] == "multiplicity_free"
    got = {(p["s"], p["t"]): p["value"] for p in result["constant_profile_positions"]}
    assert set(got) == set(value)
    for pos, v in value.items():
        assert abs(got[pos] - v) <= REL * v


@pytest.mark.parametrize("n", [13, 16, 20])
def test_distance_check_real_hessenberg(capsys, tmp_path, n):
    A, value = real_hessenberg(np.random.default_rng([2010, n]), n)
    f = tmp_path / "hess.txt"
    write_matrix(A, str(f))
    code, rep, err = _run_json(
        capsys, "check", str(f), "--form", "distance", "--s", str(n - 1), "--t", "0"
    )
    assert code == 0, err
    result = rep["result"]
    assert (result["condition_i"], result["condition_ii"]) == (True, True)
    assert result["spectral_kind"] == "multiplicity_free"
    assert result["symmetrizable"] is False
    assert result["distance"] == n - 1
    assert abs(result["profile"]["common_value"] - value) <= REL * value


@pytest.mark.parametrize("n", [17, 21, 31])
def test_cofactor_cross_check_stays_tight(n):
    # adj(theta_i I - A) = gap_i E_i needs no eigenvector; the product formula
    # it replaced drifted past 1e-8 here (worst of these seeds: 7e-7 at n = 21,
    # 0.16 at n = 31)
    worst = 0.0
    for seed in range(20):
        A, _, _ = permuted_path(np.random.default_rng([2010, n, seed]), n)
        residuals = spectrum_identity_residuals(analyze_matrix(A))
        worst = max(worst, residuals["cofactor_rel"])
    assert worst <= 1e-8
