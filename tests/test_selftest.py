"""Self-check suite harness: bookkeeping, determinism, suite outcomes."""

import dataclasses

import numpy as np
import pytest

from spectralpath.equivalence import analyze_matrix, random_instance
from spectralpath.linalg import DEFAULT_TOL
from spectralpath.selftest import (
    MAX_RECORDED_FAILURES,
    SuiteResult,
    spectrum_identity_residuals,
    suite_degenerate,
    suite_distance_equivalence,
    suite_hessenberg_powers,
    suite_path_equivalence,
    suite_symmetrizer,
)

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_suite_result_bookkeeping():
    r = SuiteResult("demo")
    assert r.passed
    r.track("x", 1.0)
    r.track("x", 0.5)  # smaller value does not replace the maximum
    r.track("x", 2.0)
    assert r.worst["x"] == 2.0
    for i in range(MAX_RECORDED_FAILURES + 5):
        r.fail(f"failure {i}")
    assert not r.passed
    assert len(r.failures) == MAX_RECORDED_FAILURES + 1
    assert r.failures[-1].startswith("...")


def test_spectrum_identity_residuals_keys():
    out = spectrum_identity_residuals(analyze_matrix(PATH3))
    for key in (
        "sum_to_identity",
        "idempotency",
        "reconstruction",
        "reconstruction_rel",
        "cofactor_rel",
    ):
        assert key in out
        assert out[key] <= 1e-10


@pytest.mark.parametrize("d", [0, 4])
def test_cofactor_rel_sees_one_rescaled_eigenvector(d):
    # at d = 0 the minors are 0 x 0, with determinant 1
    analysis = analyze_matrix(random_instance("permuted_path", d, seed=[31, d]))
    sp = analysis.spectral.spectrum
    assert spectrum_identity_residuals(analysis)["cofactor_rel"] <= 1e-12
    for i in range(d + 1):
        X = sp.X.copy()
        X[:, i] *= 1.0 + 1e-3
        spectral = dataclasses.replace(analysis.spectral, spectrum=dataclasses.replace(sp, X=X))
        mutant = dataclasses.replace(analysis, spectral=spectral)
        assert spectrum_identity_residuals(mutant)["cofactor_rel"] > 1e-6


def test_spectrum_identity_residuals_needs_a_multiplicity_free_matrix():
    with pytest.raises(ValueError, match="multiplicity-free"):
        spectrum_identity_residuals(analyze_matrix(np.eye(2)))


def test_individual_suites_pass_small():
    assert suite_path_equivalence(trials=4, d_max=4, seed=1).passed
    assert suite_distance_equivalence(trials=4, d_max=4, seed=1).passed
    assert suite_hessenberg_powers(trials=4, d_max=5, seed=1).passed
    assert suite_symmetrizer(trials=4, d_max=6, seed=1).passed
    assert suite_degenerate(seed=1).passed


def test_suites_are_deterministic():
    a = suite_path_equivalence(trials=3, d_max=3, seed=9)
    b = suite_path_equivalence(trials=3, d_max=3, seed=9)
    assert a.cases == b.cases
    assert a.worst == b.worst


def test_scheme_suite_cross_checks_closed_form(monkeypatch):
    from dataclasses import replace

    from spectralpath import schemes
    from spectralpath.selftest import _suite_scheme

    assert _suite_scheme(seed=0, tol=DEFAULT_TOL).passed
    counted = schemes.scheme_from_relations

    def off_by_one(mats):
        scheme = counted(mats)
        p = scheme.p.copy()
        p[1, 1, 2] += 1
        return replace(scheme, p=p)

    monkeypatch.setattr(schemes, "scheme_from_relations", off_by_one)
    result = _suite_scheme(seed=0, tol=DEFAULT_TOL)
    assert not result.passed
    assert any("differs from triple counting" in msg for msg in result.failures)
