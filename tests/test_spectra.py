"""Spectral classification, projector products, entry profiles."""

import math

import numpy as np
import pytest

from spectralpath.equivalence import analyze_matrix
from spectralpath.linalg import (
    DEFAULT_TOL, DegenerateSpectrumError, SpectralIdentityError, Tolerance, _gap_products, _symmetrized_eigh,
)
from spectralpath.spectra import (
    SpectralKind,
    _eigenvalue_groups,
    _spectrum,
    _classify,
    _verify_spectrum,
)
from spectralpath.symmetrize import Symmetrizer
from suites import INSTANCE_KINDS, random_instance

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
    return sorted(_classify(_companion(coeffs), None, DEFAULT_TOL).eigenvalues)


def test_real_roots_distinct():
    roots = _real_roots([1.0, 0.0, -4.0])
    assert len(roots) == 2
    assert roots[0][1] == 1 and roots[1][1] == 1
    assert abs(roots[0][0] + 2.0) < 1e-9
    assert abs(roots[1][0] - 2.0) < 1e-9


def test_real_roots_triple():
    # (x - 1)^3: a single Jordan block, eigenvalues spread by eps^(1/3) in eig
    out = _classify(_companion([1.0, -3.0, 3.0, -1.0]), None, DEFAULT_TOL)
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
    out = _classify(_companion([1.0, 0.0, 1.0]), None, DEFAULT_TOL)
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
    sp = analyze_matrix(PATH3).spectral.spectrum
    assert np.allclose(sp.theta, theta, atol=1e-12)
    E = [np.outer(sp.X[:, i], sp.Yt[i, :]) for i in range(3)]
    middle = np.array([[0.5, 0.0, -0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(E[1], middle, atol=1e-12)
    assert np.allclose(E[0] + E[1] + E[2], np.eye(3), atol=1e-12)
    assert np.allclose(PATH3 @ E[0], theta[0] * E[0], atol=1e-12)


def test_primitive_idempotents_rejects_wrong_eigenvalues():
    # the verification every spectrum passes, given the right eigenvectors
    eye = np.eye(2)
    with pytest.raises(SpectralIdentityError) as info:
        _verify_spectrum(np.diag([1.0, 2.0]), np.array([1.0, 3.0]), eye, eye, Tolerance())
    assert info.value.which == "reconstruction"
    with pytest.raises(DegenerateSpectrumError):
        _spectrum(eye, np.array([1.0, 1.0]), eye, eye, Tolerance())


def test_spectrum_of_sorts_descending():
    sp = analyze_matrix(np.diag([1.0, 3.0, 2.0])).spectral.spectrum
    assert sp.theta.tolist() == [3.0, 2.0, 1.0]
    assert sp.residuals["idempotency"] <= 1e-12


def test_classify_multiplicity_free_symmetric_route():
    out = analyze_matrix(PATH3).spectral
    assert out.kind is SpectralKind.MULTIPLICITY_FREE
    assert out.spectrum is not None
    values = [v for v, _ in out.eigenvalues]
    assert np.allclose(values, [math.sqrt(2.0), 0.0, -math.sqrt(2.0)], atol=1e-10)


def test_classify_repeated_eigenvalue_symmetric():
    out = analyze_matrix(np.eye(2)).spectral
    assert out.kind is SpectralKind.DIAGONALIZABLE_NOT_MF
    assert out.eigenvalues == ((1.0, 2),)
    assert out.spectrum is None


def test_classify_triangular_goes_through_polynomial_fallback():
    out = analyze_matrix(np.array([[1.0, 1.0], [0.0, 2.0]])).spectral
    assert out.kind is SpectralKind.MULTIPLICITY_FREE
    values = sorted(v for v, _ in out.eigenvalues)
    assert np.allclose(values, [1.0, 2.0], atol=1e-9)


def test_classify_nilpotent_jordan_block():
    out = analyze_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])).spectral
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE
    assert out.rank_defects == ((0.0, 1),)


def test_nilpotent_jordan_block_takes_the_pinv_fallback(monkeypatch):
    # eig returns dependent eigenvectors here; inv(X) overflows the
    # condition bound, so the pseudo-inverse drops the dependent direction
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda X: calls.append(X) or pinv(X))
    out = analyze_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])).spectral
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE
    assert out.rank_defects == ((0.0, 1),)
    assert len(calls) == 1
    analyze_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))  # well separated: inv alone
    assert len(calls) == 1


def _classification(A):
    try:
        out = analyze_matrix(A).spectral
    except DegenerateSpectrumError as exc:
        return "DegenerateSpectrumError", str(exc)
    return out.kind, [m for _, m in out.eigenvalues], [d for _, d in out.rank_defects]


def test_inv_route_classifies_as_the_pinv_route(monkeypatch):
    # every random_instance kind, and the same rounded to integers (Jordan
    # blocks and repeated eigenvalues), classified with Y^T = inv(X) and
    # again with the pinv fallback forced by a failing inv
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
    out = analyze_matrix(cyc).spectral
    assert out.kind is SpectralKind.COMPLEX_SPECTRUM
    assert len(out.eigenvalues) == 1
    assert abs(out.eigenvalues[0][0] - 1.0) < 1e-9


def test_classify_defective_but_asymmetric_pattern():
    # [[1, 1, 0], [0, 1, 0], [1, 0, 2]]: eigenvalue 1 doubled with defect
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    out = analyze_matrix(A).spectral
    assert out.kind is SpectralKind.NOT_DIAGONALIZABLE


def gap_at(theta, i, tol=DEFAULT_TOL):
    """The gap product at one index, from the one implementation."""
    return float(_gap_products(np.asarray(theta, dtype=float), tol)[i])


def test_gap_product_frozen_values():
    cube3 = np.array([3.0, 1.0, -1.0, -3.0])
    assert gap_at(cube3, 0) == pytest.approx(48.0, abs=1e-12)
    # by hand: (1-3)(1+1)(1+3) = -16
    assert gap_at(cube3, 1) == pytest.approx(-16.0, abs=1e-12)
    cube4 = np.array([4.0, 2.0, 0.0, -2.0, -4.0])
    assert gap_at(cube4, 0) == pytest.approx(384.0, abs=1e-12)
    assert gap_at(np.array([7.0]), 0) == 1.0


def test_gap_product_degenerate_guard():
    with pytest.raises(DegenerateSpectrumError):
        gap_at(np.array([1e-9, 0.0]), 0)


def test_gap_product_uses_callers_eig_tol():
    theta = np.array([1e-5, 0.0])
    assert gap_at(theta, 0) == pytest.approx(1e-5)
    with pytest.raises(DegenerateSpectrumError):
        gap_at(theta, 0, Tolerance(eig_tol=1e-4))
    # the gap products stored with a spectrum; _classify merges eigenvalues
    # closer than eig_tol before it forms them, so the raise is _gap_products'
    sp = analyze_matrix(np.diag([1e-5, 0.0])).spectral.spectrum
    assert sp.gaps.tolist() == pytest.approx([1e-5, -1e-5])


def test_gap_product_overflow_is_a_numerical_error():
    # 106 of these 120 products overflow; numpy would warn and return inf
    theta = np.linspace(0.0, 2000.0, 120)
    with pytest.raises(DegenerateSpectrumError, match="gap products overflow the float range"):
        _gap_products(theta, DEFAULT_TOL)


def test_entry_profile_frozen_path3():
    analysis = analyze_matrix(PATH3)
    p_end = analysis.profile(0, 2)
    assert np.allclose(p_end.values, [1.0, 1.0, 1.0], atol=1e-10)
    assert p_end.common_value == pytest.approx(1.0, abs=1e-10)

    p_mid = analysis.profile(0, 1)
    root2 = math.sqrt(2.0)
    assert np.allclose(p_mid.values, [root2, 0.0, -root2], atol=1e-10)
    assert p_mid.common_value is None

    p_diag = analysis.profile(1, 1)
    # (E_i)_{11} gap products: middle projector vanishes at (1, 1)
    assert p_diag.common_value is None


def test_entry_profile_constant_zero():
    # diagonal matrix: off-diagonal projector entries vanish identically, and zero is not a nonzero constant
    prof = analyze_matrix(np.diag([1.0, 2.0])).profile(0, 1)
    assert (prof.values == 0.0).all() and prof.spread == 0.0
    assert prof.common_value is None


def test_entry_profile_zero_mean_is_not_constant_at_any_residual_tol():
    # the profile (sqrt 2, 0, -sqrt 2) spreads by less than twice its largest value, but its mean is zero
    analysis = analyze_matrix(PATH3, Tolerance(residual_tol=2.0))
    assert analysis.profile(0, 1).common_value is None
    assert analysis.profile(0, 2).common_value == pytest.approx(1.0, abs=1e-10)
    assert (0, 1) not in {(s, t) for s, t, _ in analysis.constant_positions()}


def test_entry_profile_requires_multiplicity_free():
    analysis = analyze_matrix(np.eye(2))
    assert analysis.spectral.kind is SpectralKind.DIAGONALIZABLE_NOT_MF
    assert analysis.profile(0, 1) is None
    assert analysis.constant_positions() == []
    with pytest.raises(ValueError):
        analyze_matrix(PATH3).profile(0, 7)


def test_projector_identities_on_random_symmetric_matrices():
    rng = np.random.default_rng(55)
    for n in (2, 4, 6):
        for _ in range(6):
            S = rng.normal(size=(n, n))
            S = S + S.T
            out = _classify(S, Symmetrizer(kappa=np.ones(n)), DEFAULT_TOL)  # unit weights symmetrize S
            if out.kind is not SpectralKind.MULTIPLICITY_FREE:
                continue  # random ties are vanishingly rare but tolerated
            sp = out.spectrum
            assert sp.residuals["sum_to_identity"] <= 1e-8
            assert sp.residuals["idempotency"] <= 1e-8
            recon = (sp.X * sp.theta) @ sp.Yt
            assert np.max(np.abs(recon - S)) <= 1e-8 * max(1.0, np.max(np.abs(S)))


def _eigenvalue_groups_full_loop(A, w, X, Yt, tol):
    """The merge loop without the early exit, as a reference: every pass
    forms the linked distances and stops on the first infinite minimum."""
    n = len(w)
    peak = float(np.max(np.abs(A)))
    floor = tol.eig_tol * peak
    e = np.frexp(peak)[1]
    unit = float(np.ldexp(4 * n * np.finfo(float).eps * float(np.linalg.norm(np.ldexp(A, -e))), e))
    groups = [[i] for i in range(n)]
    center = w.astype(complex)
    radius = np.maximum(floor, unit * np.linalg.norm(X, axis=0) * np.linalg.norm(Yt, axis=1))
    while len(groups) > 1:
        dist = np.abs(center[:, None] - center[None, :])
        np.fill_diagonal(dist, np.inf)
        linked = np.where(dist <= radius[:, None] + radius[None, :], dist, np.inf)
        a, b = sorted(np.unravel_index(int(np.argmin(linked)), linked.shape))
        if not np.isfinite(linked[a, b]):
            break
        groups[a] += groups.pop(b)
        center, radius = np.delete(center, b), np.delete(radius, b)
        g = groups[a]
        center[a] = np.mean(w[g])
        kappa = float(np.linalg.norm(X[:, g] @ Yt[g, :]))
        radius[a] = max(floor, unit * kappa) + float(np.max(np.abs(w[g] - center[a])))
    return [(list(g), complex(c), float(r)) for g, c, r in zip(groups, center, radius)]


def test_eigenvalue_groups_early_exit_matches_the_full_loop():
    # every random_instance kind at d = 0..12, and the same rounded to
    # integers, which gives repeated eigenvalues and Jordan blocks
    cases = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])]
    for kind in INSTANCE_KINDS:
        for d in range(13):
            for seed in range(3):
                A = random_instance(kind, d, seed, density=0.4)
                cases += [A, np.rint(A)]
    merged = 0
    for A in cases:
        w, X = np.linalg.eig(A)
        Yt = np.linalg.pinv(X)
        got = _eigenvalue_groups(A, w, X, Yt, DEFAULT_TOL)
        assert got == _eigenvalue_groups_full_loop(A, w, X, Yt, DEFAULT_TOL)
        assert all(type(c) is complex and type(r) is float for _, c, r in got)
        merged += any(len(g) > 1 for g, _, _ in got)
    assert merged >= 20, merged
    # the Jordan block and the defective matrix above take the merge branch
    for A in cases[:2]:
        w, X = np.linalg.eig(A)
        assert len(_eigenvalue_groups(A, w, X, np.linalg.pinv(X), DEFAULT_TOL)) < len(A)


def test_symmetric_runs_split_at_certified_gaps_within_the_full_loop_groups():
    # the eigh route splits the descending w of H wherever a gap exceeds
    # twice the Weyl unit 4 n eps ||H||_F, and nowhere else, at any eig_tol;
    # each merge-loop group with unit eigenvectors (every projector norm
    # sqrt(|g|), as for orthonormal ones) is a union of those runs, since its
    # radii never fall below the unit.  eig_tol = 0 leaves the unit as the
    # loop's least radius, and eig_tol = 0.02 or 0.05 chains merges across
    # uniform spectra
    rng = np.random.default_rng(7)
    cases = [np.zeros((3, 3)), np.ones((40, 40)) - np.eye(40)]
    star = np.zeros((30, 30))
    star[0, 1:] = star[1:, 0] = 1.0
    cases.append(star)
    for n in (2, 5, 9, 16):
        for _ in range(4):
            B = np.rint(rng.normal(size=(n, n)))
            cases.append(B + B.T)
            # near ties, split at 1e-9 and mostly joined at 1e-14, below twice the unit
            cases += [np.diag(rng.integers(0, 3, size=n) + e * rng.normal(size=n)) for e in (1e-9, 1e-14)]
    cases += [np.diag(rng.uniform(0.0, 1.0, size=n)) for n in (9, 16, 16, 30, 30, 30, 30)]
    merged = coarser = 0
    for H in cases:
        H = 0.5 * (H + H.T)
        n = len(H)
        w, _, _, cuts = _symmetrized_eigh(H, np.ones(n))
        split = 8 * n * np.finfo(float).eps * np.linalg.norm(H)  # H is exactly symmetric: no residual term
        assert cuts == [0, *(i + 1 for i in range(n - 1) if w[i] - w[i + 1] > split), n]
        runs = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        for tol in (DEFAULT_TOL, Tolerance(eig_tol=0.0), Tolerance(eig_tol=0.02), Tolerance(eig_tol=0.05)):
            try:
                eigenvalues = _classify(H, Symmetrizer(kappa=np.ones(n)), tol).eigenvalues
            except (DegenerateSpectrumError, SpectralIdentityError):  # raised only past n singleton runs
                eigenvalues = [(t, 1) for t in w]
            assert [m for _, m in eigenvalues] == [len(r) for r in runs]
            for r, (t, _) in zip(runs, eigenvalues):
                assert t == (w[r[0]] if len(r) == 1 else w[r.start:r.stop].mean())
            eye = np.eye(n)
            groups = _eigenvalue_groups_full_loop(H, w, eye, eye, tol)
            for g, _, _ in groups:
                assert all(set(r) <= set(g) or not set(r) & set(g) for r in runs)
            coarser += len(groups) < len(runs)
        merged += any(len(r) > 1 for r in runs)
    assert merged >= 15, merged
    assert coarser >= 1, coarser


def test_exact_repeats_stay_in_one_symmetric_run():
    # Q diag(lambda) Q^T with Q random orthogonal and one eigenvalue repeated
    # exactly: the Weyl split never cuts through the repeat, at any order
    # from 3 to 59 and any scale from 1e-3 to 1e6
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        lam = np.sort(rng.uniform(-scale, scale, size=n))[::-1]
        m = int(rng.integers(2, min(n, 6) + 1))
        a = int(rng.integers(0, n - m + 1))
        lam[a:a + m] = lam[a]  # still descending
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        H = (Q * lam) @ Q.T
        cuts = _symmetrized_eigh(0.5 * (H + H.T), np.ones(n))[3]
        assert not [c for c in cuts if a < c < a + m], (n, scale, m, a)


def test_skewed_diagonal_splits_at_its_certified_top_gap():
    # both gaps, 2.4e-8 at the top and 1.9e-8 below the cluster, exceed twice
    # the Weyl unit (2.6e-14), so the runs are x1, x4 and x1, although the
    # lower gap is below 2 eig_tol max|A| = 2e-8
    top, mid = 1 + 4.3e-8, 1 + 1.9e-8
    eigenvalues = analyze_matrix(np.diag([top, mid, mid, mid, mid, 1.0])).spectral.eigenvalues
    assert [m for _, m in eigenvalues] == [1, 4, 1]
    assert eigenvalues[0][0] == top and eigenvalues[2][0] == 1.0
    assert eigenvalues[1][0] == pytest.approx(mid, abs=1e-15)


def test_gap_within_the_symmetrizers_residual_exits_three():
    # rows 0 and 1 equal, one arc 1 + 2^-30 and an isolated vertex: exactly 0
    # twice, -2^-30/3 and 3 + 2^-30/3, diagonalizable.  The symmetrizer
    # accepts the cycle within residual_tol, and H's eigenvalues near 0, about
    # 1.6e-10 apart and far above twice the Weyl unit, are not A's: the gaps
    # lie within twice ||S - H||, which certifies neither split nor equality
    A = np.zeros((4, 4))
    A[:3, :3] = 1.0
    A[2, 1] += 2.0**-30
    with pytest.raises(DegenerateSpectrumError, match="within twice the symmetrizer's residual"):  # eigh route
        analyze_matrix(A)
