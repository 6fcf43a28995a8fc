"""Two-sided pattern/spectrum equivalence checks and instance generators."""

import tracemalloc

import numpy as np
import pytest

from spectralpath import equivalence
from spectralpath.equivalence import (
    EquivalenceReport,
    NegativeEntryError,
    analyze_matrix,
    check_characterization,
    clamp_nonnegative,
)
from spectralpath.spectra import SpectralKind, _profile_threshold
from spectralpath.symmetrize import Symmetrizer
from suites import INSTANCE_KINDS, random_instance
from test_digraph import seeded_mask

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
            rep = check_characterization(analysis, "path", s, t)
            assert rep.equivalent, (s, t)
            if rep.condition_i and rep.condition_ii:
                hits.add(frozenset((s, t)))
    assert hits == {frozenset((0, 2))}


def test_path_check_report_fields():
    rep = check_characterization(analyze_matrix(PATH3), "path", 0, 2)
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
    rep = check_characterization(analysis, "path", 0, 1)
    assert rep.condition_i and rep.condition_ii
    for s, t in [(0, 2), (1, 2)]:
        rep = check_characterization(analysis, "path", s, t)
        assert rep.equivalent and not rep.condition_i


def test_distance_check_with_diagonal_shift():
    # adding I to the path matrix keeps projectors and gap products intact
    A = np.eye(3) + PATH3
    analysis = analyze_matrix(A)
    rep = check_characterization(analysis, "distance", 0, 2)
    assert rep.condition_i and rep.condition_ii
    assert np.allclose(rep.profile.values, [1.0, 1.0, 1.0], atol=1e-10)
    rep = check_characterization(analysis, "distance", 0, 1)
    assert rep.equivalent and not rep.condition_i


def test_distance_check_asymmetric_hessenberg():
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    rep = check_characterization(analyze_matrix(A), "distance", 0, 2)
    assert rep.condition_i and rep.condition_ii


def test_rotation_matrix_fails_both_sides():
    cyc = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rep = check_characterization(analyze_matrix(cyc), "distance", 0, 2)
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
    assert agree.equivalent
    split = EquivalenceReport(condition_i=True, condition_ii=False, **base)
    assert not split.equivalent
    both_fail = EquivalenceReport(condition_i=False, condition_ii=False, **base)
    assert both_fail.equivalent


def test_position_validation():
    with pytest.raises(ValueError, match=r"entry position \(0, 3\) outside"):
        check_characterization(analyze_matrix(PATH3), "path", 0, 3)
    with pytest.raises(ValueError, match=r"entry position \(-1, 0\) outside"):
        check_characterization(analyze_matrix(PATH3), "distance", -1, 0)
    with pytest.raises(ValueError, match="unknown form 'walk'"):
        check_characterization(analyze_matrix(PATH3), "walk", 0, 2)


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
                rep = check_characterization(analysis, "path", s, t)
                assert rep.equivalent, (seed, s, t)
                if rep.condition_i and rep.condition_ii:
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
                rep = check_characterization(analysis, "distance", s, t)
                assert rep.equivalent, (seed, s, t)
                agree += 1
    assert agree > 0


def test_single_vertex_degenerate_case():
    A = np.array([[0.7]])
    for form in ("path", "distance"):
        rep = check_characterization(analyze_matrix(A), form, 0, 0)
        assert rep.condition_i and rep.condition_ii
        assert np.allclose(rep.profile.values, [1.0])


def _reference_check(analysis, form, s, t) -> EquivalenceReport:
    """The two check bodies that `check_characterization` replaced, kept as its reference.

    The path form compares the ends of the path order with {s, t}; the
    distance form compares the directed distance with n - 1.
    """
    profile = analysis.profile(s, t)
    spectral_ok = profile is not None and profile.is_constant and profile.common_value is not None
    symmetrizable = isinstance(analysis.symmetrizer, Symmetrizer)
    kind = analysis.spectral.kind
    order = analysis.path_order
    dist = analysis.distance(s, t)
    if form == "path":
        cond_i = order is not None and {order[0], order[-1]} == {s, t}
        cond_ii = symmetrizable and spectral_ok
    else:
        diagonalizable = kind in (SpectralKind.MULTIPLICITY_FREE, SpectralKind.DIAGONALIZABLE_NOT_MF)
        cond_i = bool(diagonalizable and dist == len(analysis.A) - 1)
        cond_ii = spectral_ok
    return EquivalenceReport(form, s, t, cond_i, cond_ii, kind, symmetrizable, order, dist, profile)


def _report_fields(rep: EquivalenceReport) -> dict:
    """Every field of `rep`, the profile's values as bytes, so two reports compare exactly."""
    fields = {**vars(rep), "types": (type(rep.condition_i), type(rep.condition_ii))}
    if rep.profile is not None:
        fields["profile"] = {**vars(rep.profile), "values": rep.profile.values.tobytes()}
    return fields


def test_one_check_body_matches_the_two_it_replaced():
    """Distance n - 1 gated by a path order is the path form: every field agrees, in both forms.

    Paths hold at their ends; trees, a path beside a cycle, a path with one
    arc made one-way, the empty mask and random Hessenberg and general
    matrices are the decoys, some of them at distance n - 1 with no path order.
    """
    rng = np.random.default_rng(20261019)
    matrices = []
    for n in range(1, 9):
        for kind in ("path", "tree", "path_and_cycle", "one_arc_removed", "empty"):
            if kind == "path_and_cycle" and n < 4:  # a path beside a cycle needs four vertices
                continue
            for _ in range(3):
                mask = seeded_mask(rng, n, kind)
                weights = rng.uniform(0.1, 2.0, (n, n))
                matrices.append(np.where(mask, weights, 0.0) + np.diag(rng.uniform(0.0, 2.0, n)))
        for kind in ("hessenberg", "general_nonneg"):
            matrices += [random_instance(kind, n - 1, seed=[n, i], density=0.4) for i in range(3)]
    held = {"path": 0, "distance": 0}
    decoys = 0
    for A in matrices:
        analysis = analyze_matrix(A)
        n = len(A)
        for s in range(n):
            for t in range(n):
                for form in ("path", "distance"):
                    got = check_characterization(analysis, form, s, t)
                    assert _report_fields(got) == _report_fields(_reference_check(analysis, form, s, t)), (
                        A, form, s, t)
                    held[form] += got.condition_i
                decoys += n > 1 and analysis.distance(s, t) == n - 1 and analysis.path_order is None
    assert min(held.values()) > 50 and decoys > 20, (held, decoys)


def test_far_pairs_are_the_distance_form_pattern_side():
    """`far_pairs` lists exactly the positions where `check --form distance` finds its pattern side."""
    rng = np.random.default_rng(20261020)
    matrices = [np.array([[1.0, 1.0], [0.0, 2.0]]), np.eye(3), np.ones((1, 1))]
    for n in range(2, 9):
        for kind in ("path", "tree", "one_arc_removed", "empty"):
            mask = seeded_mask(rng, n, kind)
            matrices.append(np.where(mask, rng.uniform(0.1, 2.0, (n, n)), 0.0) + np.diag(rng.uniform(0.0, 2.0, n)))
        matrices += [random_instance(kind, n - 1, seed=[n, i], density=0.4)
                     for kind in ("hessenberg", "general_nonneg") for i in range(3)]
    held = 0
    for A in matrices:
        analysis = analyze_matrix(A)
        n = len(A)
        expected = [(s, t) for s in range(n) for t in range(n)
                    if check_characterization(analysis, "distance", s, t).condition_i]
        assert analysis.far_pairs() == expected, A
        held += len(expected)
    assert held > 25


def test_check_and_analyze_read_one_profile_body():
    """At every position `analyze` lists, `check --form distance` reports the same common value, bit for bit."""
    rng = np.random.default_rng(20261019)
    matrices = [random_instance(kind, d, seed) for kind in ("permuted_path", "tridiagonal", "hessenberg")
                for d in range(2, 24) for seed in range(3)]
    for n in range(2, 25):
        mask = seeded_mask(rng, n, "tree")
        matrices.append(np.where(mask, rng.uniform(0.1, 2.0, (n, n)), 0.0) + np.diag(rng.uniform(0.0, 2.0, n)))
    listed = 0
    for A in matrices:
        analysis = analyze_matrix(A)
        for s, t, value in analysis.constant_positions():
            assert check_characterization(analysis, "distance", s, t).profile.common_value == value, (A, s, t)
            listed += 1
    assert listed > 200


def test_constant_positions_sweep_stays_small():
    """The sweep holds blocks of rows, not the (n, n, n) tensor of 64 MB at n = 200."""
    analysis = analyze_matrix(random_instance("permuted_path", 199, 3))
    tracemalloc.start()
    try:
        analysis.constant_positions()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def _tensor_sweep(analysis):
    """The (n, n, n) tensor sweep that `constant_positions` replaced, kept as its reference.

    Returns every profile C[:, s, t], the mean and spread per position, and
    the (s, t, common value) list in row-major order.
    """
    sp = analysis.spectral.spectrum
    threshold = _profile_threshold(analysis.A, analysis.tol)
    C = (sp.X.T * sp.gaps[:, None])[:, :, None] * sp.Yt[:, None, :]
    mean = C.mean(axis=0)
    spread = np.abs(C - mean).max(axis=0)
    is_constant = spread <= threshold
    nonzero = is_constant & (np.abs(mean) > threshold)
    return C, mean, spread, [(int(s), int(t), float(mean[s, t])) for s, t in np.argwhere(nonzero)]


@pytest.mark.parametrize("block", [equivalence.PROFILE_BLOCK, 1000])
def test_row_blocks_match_the_tensor_sweep(monkeypatch, block):
    """Positions, values and every profile agree bitwise with the tensor sweep, in one block or many."""
    monkeypatch.setattr(equivalence, "PROFILE_BLOCK", block)
    matrices = [random_instance(kind, d, seed) for kind in ("permuted_path", "hessenberg", "general_nonneg")
                for d in (1, 5, 12, 30, 59) for seed in range(2)]
    matrices += [random_instance("permuted_path", 3, 1) + 462.0 * np.eye(4), np.ones((1, 1))]
    listed = 0
    for A in matrices:
        analysis = analyze_matrix(A)
        if analysis.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
            continue
        C, mean, spread, positions = _tensor_sweep(analysis)
        assert analysis.constant_positions() == positions
        listed += len(positions)
        n = len(A)
        for s in range(0, n, max(1, n // 7)):
            for t in range(n):
                prof = analysis.profile(s, t)
                assert prof.values.tobytes() == C[:, s, t].tobytes()
                assert (prof.spread, prof.common_value is not None) == (spread[s, t], (s, t, mean[s, t]) in positions)
                assert prof.common_value in (None, mean[s, t])
    assert listed > 10


def _answers(analysis, label):
    """Spectral kind, constant positions (with values) and far pairs, positions mapped by `label`."""
    positions = sorted((*label(s, t), value) for s, t, value in analysis.constant_positions())
    return analysis.spectral.kind, positions, sorted(label(s, t) for s, t in analysis.far_pairs())


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_answers_follow_relabeling_and_transposition(kind):
    # exact metamorphic relations: P A P^T moves every answer with its labels,
    # and A^T turns (s, t) into (t, s), since E_i(A^T) = E_i(A)^T
    for d in range(1, 12):
        for seed in range(5):
            A = random_instance(kind, d, seed)
            perm = np.random.default_rng([seed, d]).permutation(d + 1)
            kinds, positions, far = _answers(analyze_matrix(A), lambda s, t: (s, t))
            for B, label in (  # label: a position of B as a position of A
                (A[np.ix_(perm, perm)], lambda s, t: (int(perm[s]), int(perm[t]))),
                (A.T, lambda s, t: (t, s)),
            ):
                got_kind, got_positions, got_far = _answers(analyze_matrix(B), label)
                assert (got_kind, got_far) == (kinds, far), (kind, d, seed)
                assert [p[:2] for p in got_positions] == [p[:2] for p in positions], (kind, d, seed)
                assert np.allclose([p[2] for p in got_positions], [p[2] for p in positions], rtol=1e-9, atol=0.0)
