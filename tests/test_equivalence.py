"""Two-sided pattern/spectrum equivalence checks and instance generators."""

import numpy as np
import pytest

from spectralpath.equivalence import (
    EquivalenceReport,
    NegativeEntryError,
    analyze_matrix,
    check_distance_characterization,
    check_path_characterization,
    clamp_nonnegative,
)
from spectralpath.spectra import SpectralKind
from suites import INSTANCE_KINDS, random_instance

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_clamp_negative_entries():
    A = np.array([[0.0, -1e-14], [1.0, 0.0]])
    out = clamp_nonnegative(A)
    assert out[0, 1] == 0.0
    with pytest.raises(NegativeEntryError):
        clamp_nonnegative(np.array([[0.0, -0.5], [1.0, 0.0]]))
    # nothing negative: the validated copy itself, -0.0 kept as np.where keeps it
    B = np.array([[-0.0, 1.0], [1.0, 0.0]])
    out = clamp_nonnegative(B)
    assert out is not B and out.tobytes() == B.tobytes()


def test_path_check_holds_exactly_at_endpoints():
    analysis = analyze_matrix(PATH3)
    hits = set()
    for s in range(3):
        for t in range(3):
            rep = check_path_characterization(analysis, s, t)
            assert rep.equivalent, (s, t)
            if rep.both_true:
                hits.add(frozenset((s, t)))
    assert hits == {frozenset((0, 2))}


def test_path_check_report_fields():
    rep = check_path_characterization(analyze_matrix(PATH3), 0, 2)
    assert rep.form == "path"
    assert rep.condition_i and rep.condition_ii
    assert rep.spectral_kind is SpectralKind.MULTIPLICITY_FREE
    assert rep.symmetrizable
    assert rep.path_order == (0, 1, 2)
    assert rep.distance == 2
    assert rep.profile.common_value == pytest.approx(1.0, abs=1e-10)


def test_path_check_on_relabeled_path():
    perm = [2, 0, 1]
    B = PATH3[np.ix_(perm, perm)]
    analysis = analyze_matrix(B)
    # old endpoints 0 and 2 now live at positions 1 and 0
    rep = check_path_characterization(analysis, 0, 1)
    assert rep.both_true
    for s, t in [(0, 2), (1, 2)]:
        rep = check_path_characterization(analysis, s, t)
        assert rep.equivalent and not rep.both_true


def test_distance_check_with_diagonal_shift():
    # adding I to the path matrix keeps projectors and gap products intact
    A = np.eye(3) + PATH3
    analysis = analyze_matrix(A)
    rep = check_distance_characterization(analysis, 0, 2)
    assert rep.both_true
    assert np.allclose(rep.profile.values, [1.0, 1.0, 1.0], atol=1e-10)
    rep = check_distance_characterization(analysis, 0, 1)
    assert rep.equivalent and not rep.both_true


def test_distance_check_asymmetric_hessenberg():
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    rep = check_distance_characterization(analyze_matrix(A), 0, 2)
    assert rep.both_true


def test_rotation_matrix_fails_both_sides():
    cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rep = check_distance_characterization(analyze_matrix(cyc), 0, 2)
    assert rep.spectral_kind is SpectralKind.COMPLEX_SPECTRUM
    assert not rep.condition_i and not rep.condition_ii
    assert rep.equivalent
    assert rep.profile is None


def test_report_equivalence_is_derived():
    base = dict(
        form="path",
        s=0,
        t=1,
        spectral_kind=SpectralKind.MULTIPLICITY_FREE,
        symmetrizable=True,
        path_order=(0, 1),
        distance=1,
        profile=None,
    )
    agree = EquivalenceReport(condition_i=True, condition_ii=True, **base)
    assert agree.equivalent and agree.both_true
    split = EquivalenceReport(condition_i=True, condition_ii=False, **base)
    assert not split.equivalent and not split.both_true


def test_position_validation():
    with pytest.raises(ValueError):
        check_path_characterization(analyze_matrix(PATH3), 0, 3)
    with pytest.raises(ValueError):
        check_distance_characterization(analyze_matrix(PATH3), -1, 0)


def test_analysis_distances_match_pattern():
    A = random_instance("hessenberg", 5, seed=10, density=0.3)
    analysis = analyze_matrix(A)
    n = len(analysis.pattern)
    # unreduced lower Hessenberg: every step down moves one index, so the
    # walk from the last vertex to vertex 0 has length exactly n-1
    assert analysis.distance(n - 1, 0) == n - 1


@pytest.mark.parametrize("kind", ["permuted_path", "hessenberg", "general_nonneg"])
def test_analysis_makes_one_pattern_pass(monkeypatch, kind):
    # one validation, one mask and one set of out-lists serve the path test,
    # the symmetrizer search, the classification, every distance call and
    # every profile
    from collections import Counter

    from spectralpath import digraph, equivalence, spectra, symmetrize

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (digraph, equivalence, spectra, symmetrize):
        for name in ("as_matrix", "gamma", "_out_lists"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    analysis = analyze_matrix(random_instance(kind, 6, seed=4, density=0.4))
    for s in range(7):
        analysis.distance(s, 6 - s)
        for t in range(7):
            analysis.profile(s, t)
    analysis.constant_positions()
    assert calls == {"as_matrix": 1, "gamma": 1, "_out_lists": 1}
    if kind == "permuted_path":
        assert analysis.spectral.kind is SpectralKind.MULTIPLICITY_FREE


def test_analysis_distance_matches_walk_powers():
    """distance(s, t) is the first walk length whose pattern power reaches (s, t), else None."""
    unreachable = 0
    for kind, density in (("general_nonneg", 0.2), ("general_nonneg", 0.5), ("hessenberg", 0.3)):
        for d in range(1, 8):
            A = random_instance(kind, d, seed=[d, 5], density=density)
            analysis = analyze_matrix(A)
            n = d + 1
            step = (np.abs(A) > analysis.tol.zero_tol).astype(int)
            np.fill_diagonal(step, 0)
            walk = np.eye(n, dtype=int)
            first = np.where(walk > 0, 0, -1)
            for k in range(1, n):
                walk = (walk @ step > 0).astype(int)
                first[(walk > 0) & (first < 0)] = k
            for s in range(n):
                for t in range(n):
                    expect = int(first[s, t]) if first[s, t] >= 0 else None
                    assert analysis.distance(s, t) == expect, (kind, d, s, t)
                    unreachable += expect is None
    assert unreachable > 0


def test_random_instance_determinism_and_validation():
    for kind in INSTANCE_KINDS:
        a = random_instance(kind, 4, seed=77)
        b = random_instance(kind, 4, seed=77)
        assert np.array_equal(a, b)
        assert a.shape == (5, 5)
        assert np.min(a) >= 0.0
    assert not np.array_equal(
        random_instance("tridiagonal", 4, seed=1), random_instance("tridiagonal", 4, seed=2)
    )
    with pytest.raises(ValueError):
        random_instance("unknown", 3, seed=0)
    with pytest.raises(ValueError):
        random_instance("tridiagonal", -1, seed=0)
    with pytest.raises(ValueError):
        random_instance("general_nonneg", 3, seed=0, density=1.5)


def test_random_instance_shapes_by_kind():
    # irreducible tridiagonal: nonzero on both off-diagonals, zero beyond them
    tri = random_instance("tridiagonal", 6, seed=5)
    assert np.diagonal(tri, 1).all() and np.diagonal(tri, -1).all()
    assert not np.triu(tri, 2).any() and not np.tril(tri, -2).any()
    # unreduced lower Hessenberg: nonzero on the subdiagonal, zero below it
    hes = random_instance("hessenberg", 6, seed=5, density=0.5)
    assert np.diagonal(hes, -1).all() and not np.tril(hes, -2).any()
    per = random_instance("permuted_path", 6, seed=5)
    order = analyze_matrix(per).path_order
    assert order is not None and len(order) == 7


def test_path_equivalence_sweep_on_random_paths():
    """Both sides agree at every position; both hold exactly at the endpoints."""
    for seed in range(12):
        d = 1 + seed % 5
        A = random_instance("permuted_path", d, seed=[81, seed])
        analysis = analyze_matrix(A)
        endpoint_pairs = set()
        for s in range(d + 1):
            for t in range(d + 1):
                rep = check_path_characterization(analysis, s, t)
                assert rep.equivalent, (seed, s, t)
                if rep.both_true:
                    endpoint_pairs.add(frozenset((s, t)))
        if d == 0:
            assert endpoint_pairs == {frozenset((0,))}
        else:
            assert len(endpoint_pairs) == 1
            assert len(next(iter(endpoint_pairs))) == 2


def test_distance_equivalence_sweep_on_random_nonneg():
    agree = 0
    for seed in range(20):
        d = 1 + seed % 4
        A = random_instance("general_nonneg", d, seed=[82, seed], density=0.5)
        analysis = analyze_matrix(A)
        for s in range(d + 1):
            for t in range(d + 1):
                rep = check_distance_characterization(analysis, s, t)
                assert rep.equivalent, (seed, s, t)
                agree += 1
    assert agree > 0


def test_single_vertex_degenerate_case():
    A = np.array([[0.7]])
    for checker in (check_path_characterization, check_distance_characterization):
        rep = checker(analyze_matrix(A), 0, 0)
        assert rep.both_true
        assert np.allclose(rep.profile.values, [1.0])
