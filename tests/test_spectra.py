"""Spectral classification, projector products, entry profiles."""

import math

import numpy as np
import pytest

from spectralpath.linalg import Tolerance
from spectralpath.spectra import (
    DegenerateSpectrumError,
    MultiplicityFreeRequiredError,
    SpectralIdentityError,
    SpectralKind,
    classify,
    entry_product_profile,
    gap_product,
    primitive_idempotents,
)

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _companion(coeffs) -> np.ndarray:
    """Companion matrix of a monic polynomial, coefficients highest degree first."""
    c = np.asarray(coeffs, dtype=float)
    n = len(c) - 1
    C = np.zeros((n, n))
    C[0, :] = -c[1:]
    C[np.arange(1, n), np.arange(n - 1)] = 1.0
    return C


def _real_roots(coeffs):
    """Real roots with multiplicities, ascending, as eigenvalues of the companion matrix."""
    return sorted(classify(_companion(coeffs)).eigenvalues)


def test_real_roots_distinct():
    roots = _real_roots([1.0, 0.0, -4.0])
    assert len(roots) == 2
    assert roots[0][1] == 1 and roots[1][1] == 1
    assert abs(roots[0][0] + 2.0) < 1e-9
    assert abs(roots[1][0] - 2.0) < 1e-9


def test_real_roots_triple():
    # (x - 1)^3: a single Jordan block, eigenvalues spread by eps^(1/3) in eig
    out = classify(_companion([1.0, -3.0, 3.0, -1.0]))
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE
    assert len(out.eigenvalues) == 1
    r, m = out.eigenvalues[0]
    assert m == 3
    assert abs(r - 1.0) < 1e-5
    assert out.rank_defects == ((r, 2),)


def test_real_roots_mixed_multiplicity():
    # (x - 2)^2 (x + 1)
    roots = _real_roots([1.0, -3.0, 0.0, 4.0])
    assert [(round(r, 6), m) for r, m in roots] == [(-1.0, 1), (2.0, 2)]


def test_real_roots_complex_pair():
    out = classify(_companion([1.0, 0.0, 1.0]))
    assert out.kind is SpectralKind.COMPLEX_SPECTRUM
    assert out.eigenvalues == ()
    # x^3 - 1: one real root, two complex
    roots = _real_roots([1.0, 0.0, 0.0, -1.0])
    assert len(roots) == 1
    assert abs(roots[0][0] - 1.0) < 1e-9
    assert roots[0][1] == 1


def test_real_roots_random_factored_polynomials():
    """Polynomials built from known well-separated roots are recovered."""
    rng = np.random.default_rng(2718)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        true = np.sort(rng.choice(np.arange(-6, 7), size=k, replace=False)).astype(float)
        coeffs = np.array([1.0])
        for r in true:
            coeffs = np.convolve(coeffs, [1.0, -r])
        got = _real_roots(coeffs)
        assert len(got) == k
        for (r, m), expect in zip(got, true):
            assert m == 1
            assert abs(r - expect) < 1e-7


def test_primitive_idempotents_frozen_path3():
    theta = np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)])
    E = primitive_idempotents(PATH3, theta)
    middle = np.array([[0.5, 0.0, -0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(E[1], middle, atol=1e-12)
    assert np.allclose(E[0] + E[1] + E[2], np.eye(3), atol=1e-12)
    assert np.allclose(PATH3 @ E[0], theta[0] * E[0], atol=1e-12)


def test_primitive_idempotents_rejects_wrong_eigenvalues():
    with pytest.raises(SpectralIdentityError):
        primitive_idempotents(np.diag([1.0, 2.0]), np.array([1.0, 3.0]))
    with pytest.raises(DegenerateSpectrumError):
        primitive_idempotents(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))


def test_spectrum_of_sorts_descending():
    sp = classify(np.diag([1.0, 3.0, 2.0])).spectrum
    assert sp.theta.tolist() == [3.0, 2.0, 1.0]
    assert sp.d == 2
    assert sp.residuals["idempotency"] <= 1e-12


def test_classify_multiplicity_free_symmetric_route():
    out = classify(PATH3)
    assert out.kind is SpectralKind.MULTIPLICITY_FREE
    assert out.spectrum is not None
    values = [v for v, _ in out.eigenvalues]
    assert np.allclose(values, [math.sqrt(2.0), 0.0, -math.sqrt(2.0)], atol=1e-10)


def test_classify_repeated_eigenvalue_symmetric():
    out = classify(np.eye(2))
    assert out.kind is SpectralKind.DIAGONALIZABLE_NOT_MF
    assert out.eigenvalues == ((1.0, 2),)
    assert out.spectrum is None


def test_classify_triangular_goes_through_polynomial_fallback():
    out = classify(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert out.kind is SpectralKind.MULTIPLICITY_FREE
    values = sorted(v for v, _ in out.eigenvalues)
    assert np.allclose(values, [1.0, 2.0], atol=1e-9)


def test_classify_nilpotent_jordan_block():
    out = classify(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE
    assert out.rank_defects == ((0.0, 1),)


def test_nilpotent_jordan_block_takes_the_pinv_fallback(monkeypatch):
    # eig returns dependent eigenvectors here; inv(X) overflows the
    # condition bound, so the pseudo-inverse drops the dependent direction
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda X: calls.append(X) or pinv(X))
    out = classify(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE
    assert out.rank_defects == ((0.0, 1),)
    assert len(calls) == 1
    classify(np.array([[1.0, 1.0], [0.0, 2.0]]))  # well separated: inv alone
    assert len(calls) == 1


def _classification(A):
    try:
        out = classify(A)
    except DegenerateSpectrumError as exc:
        return "DegenerateSpectrumError", str(exc)
    return out.kind, [m for _, m in out.eigenvalues], [d for _, d in out.rank_defects]


def test_inv_route_classifies_as_the_pinv_route(monkeypatch):
    # every random_instance kind, and the same rounded to integers (Jordan
    # blocks and repeated eigenvalues), classified with Y^T = inv(X) and
    # again with the pinv fallback forced by a failing inv
    from spectralpath.equivalence import INSTANCE_KINDS, random_instance

    cases = []
    for kind in INSTANCE_KINDS:
        for d in range(20):
            for seed in range(6):
                for density in (0.3, 0.6):
                    A = random_instance(kind, d, seed, density)
                    cases += [A, np.rint(A)]
    by_inv = [_classification(A) for A in cases]

    def singular(X):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    by_pinv = [_classification(A) for A in cases]
    assert by_inv == by_pinv
    kinds = {c[0] for c in by_inv}
    assert {SpectralKind.NOT_DIAGONALIZABLE, SpectralKind.DIAGONALIZABLE_NOT_MF} <= kinds


def test_classify_rotation_has_complex_spectrum():
    cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    out = classify(cyc)
    assert out.kind is SpectralKind.COMPLEX_SPECTRUM
    assert len(out.eigenvalues) == 1
    assert abs(out.eigenvalues[0][0] - 1.0) < 1e-9


def test_classify_defective_but_asymmetric_pattern():
    # [[1, 1, 0], [0, 1, 0], [1, 0, 2]]: eigenvalue 1 doubled with defect
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    out = classify(A)
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE


def test_gap_product_frozen_values():
    cube3 = np.array([3.0, 1.0, -1.0, -3.0])
    assert gap_product(cube3, 0) == pytest.approx(48.0, abs=1e-12)
    # by hand: (1-3)(1+1)(1+3) = -16
    assert gap_product(cube3, 1) == pytest.approx(-16.0, abs=1e-12)
    cube4 = np.array([4.0, 2.0, 0.0, -2.0, -4.0])
    assert gap_product(cube4, 0) == pytest.approx(384.0, abs=1e-12)
    assert gap_product(np.array([7.0]), 0) == 1.0


def test_gap_product_degenerate_guard():
    with pytest.raises(DegenerateSpectrumError):
        gap_product(np.array([1e-9, 0.0]), 0)
    with pytest.raises(ValueError):
        gap_product(np.array([1.0, 2.0]), 5)


def test_gap_product_uses_callers_eig_tol():
    theta = np.array([1e-5, 0.0])
    assert gap_product(theta, 0) == pytest.approx(1e-5)
    with pytest.raises(DegenerateSpectrumError):
        gap_product(theta, 0, Tolerance(eig_tol=1e-4))
    # the gap products stored with a spectrum; classify merges eigenvalues
    # closer than eig_tol before it forms them, so the raise is gap_product's
    sp = classify(np.diag([1e-5, 0.0])).spectrum
    assert sp.gaps.tolist() == pytest.approx([1e-5, -1e-5])


def test_entry_profile_frozen_path3():
    p_end = entry_product_profile(PATH3, 0, 2)
    assert np.allclose(p_end.values, [1.0, 1.0, 1.0], atol=1e-10)
    assert p_end.is_constant and not p_end.constant_zero
    assert p_end.common_value == pytest.approx(1.0, abs=1e-10)

    p_mid = entry_product_profile(PATH3, 0, 1)
    root2 = math.sqrt(2.0)
    assert np.allclose(p_mid.values, [root2, 0.0, -root2], atol=1e-10)
    assert not p_mid.is_constant

    p_diag = entry_product_profile(PATH3, 1, 1)
    # (E_i)_{11} gap products: middle projector vanishes at (1, 1)
    assert not p_diag.is_constant


def test_entry_profile_constant_zero():
    # diagonal matrix: off-diagonal projector entries vanish identically
    prof = entry_product_profile(np.diag([1.0, 2.0]), 0, 1)
    assert prof.is_constant and prof.constant_zero
    assert prof.common_value is None


def test_entry_profile_requires_multiplicity_free():
    with pytest.raises(MultiplicityFreeRequiredError) as info:
        entry_product_profile(np.eye(2), 0, 1)
    assert info.value.classification.kind is SpectralKind.DIAGONALIZABLE_NOT_MF
    with pytest.raises(ValueError):
        entry_product_profile(PATH3, 0, 7)


def test_profile_reuses_provided_spectrum():
    cls = classify(PATH3)
    prof = entry_product_profile(PATH3, 2, 0, spectrum=cls.spectrum)
    assert prof.is_constant
    assert prof.common_value == pytest.approx(1.0, abs=1e-10)


def test_projector_identities_on_random_symmetric_matrices():
    rng = np.random.default_rng(55)
    for n in (2, 4, 6):
        for _ in range(6):
            S = rng.normal(size=(n, n))
            S = S + S.T
            out = classify(S)
            if out.kind is not SpectralKind.MULTIPLICITY_FREE:
                continue  # random ties are vanishingly rare but tolerated
            sp = out.spectrum
            assert sp.residuals["sum_to_identity"] <= 1e-8
            assert sp.residuals["idempotency"] <= 1e-8
            recon = sum(t * E for t, E in zip(sp.theta, sp.idempotents))
            assert np.max(np.abs(recon - S)) <= 1e-8 * max(1.0, np.max(np.abs(S)))
