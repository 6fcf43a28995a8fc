"""The property suites of `suites`: small runs, determinism, and the cofactor cross-check."""

import dataclasses

import numpy as np
import pytest

from spectralpath.equivalence import analyze_matrix
from suites import (
    degenerate,
    distance_equivalence,
    hessenberg_powers,
    path_equivalence,
    random_instance,
    spectrum_identity_residuals,
    symmetrizer,
)

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


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
    path_equivalence(trials=4, d_max=4, seed=1)
    distance_equivalence(trials=4, d_max=4, seed=1)
    hessenberg_powers(trials=4, d_max=5, seed=1)
    symmetrizer(trials=4, d_max=6, seed=1)
    degenerate(seed=1)


def test_suites_are_deterministic():
    assert path_equivalence(trials=3, d_max=3, seed=9) == path_equivalence(trials=3, d_max=3, seed=9)
