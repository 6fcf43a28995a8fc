"""Association schemes: construction, eigenmatrices, Krein parameters,
polynomial structure detection, endpoint checks, file format."""

import dataclasses
import re

import numpy as np
import pytest

from spectralpath.digraph import gamma
from spectralpath.linalg import (
    DEFAULT_TOL, DegenerateSpectrumError, ParseError, SpectralIdentityError, Tolerance,
)
from spectralpath.schemes import (
    PolyStructure,
    SchemeValidationError,
    builtin_scheme,
    check_scheme_characterization,
    detect_p_polynomial,
    detect_q_polynomial,
    eigendata,
    read_scheme,
    scheme_from_p_tensor,
    scheme_from_relations,
    _polynomial_orderings,
)
from suites import write_scheme
from test_digraph import reference_path_order

CUBE3_P = np.array(
    [
        [1.0, 3.0, 3.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
        [1.0, -3.0, 3.0, -1.0],
    ]
)


def hamming_relations(n):
    """Relations of H(n, 2) by Hamming distance on {0, 1}^n; test-side builder."""
    verts = np.arange(2**n)
    dist = np.bitwise_count(verts[:, None] ^ verts[None, :])
    return [(dist == r).astype(np.int8) for r in range(n + 1)]


def complete_relations(n):
    """Identity and all other pairs on n points; test-side builder."""
    eye = np.eye(n, dtype=np.int8)
    return [eye, 1 - eye]


def relation_scheme(name, n):
    """The builtin family `name` built from explicit relations by triple counting."""
    mats = hamming_relations(n) if name == "hypercube" else complete_relations(n)
    return scheme_from_relations(mats)


def projectors_from_relations(scheme, ed):
    """Spectral projectors as explicit |X| x |X| matrices; test-side oracle."""
    mats = [np.asarray(m, dtype=float) for m in scheme.relations]
    return [
        sum(ed.Q[s, i] * mats[s] for s in range(scheme.d + 1)) / scheme.size
        for i in range(scheme.d + 1)
    ]


def krein_by_trace(scheme, ed):
    """q^h_ij = |X| tr((E_i o E_j) E_h) / m_h from explicit projectors."""
    E = projectors_from_relations(scheme, ed)
    dp1 = scheme.d + 1
    q = np.empty((dp1, dp1, dp1))
    for i in range(dp1):
        for j in range(dp1):
            H = E[i] * E[j]
            for h in range(dp1):
                q[h, i, j] = scheme.size * np.trace(H @ E[h]) / ed.m[h]
    return q


def test_complete_four_frozen_values():
    scheme = builtin_scheme("complete", 4)
    assert scheme.size == 4 and scheme.d == 1
    assert scheme.k.tolist() == [1, 3]
    assert scheme.p[:, 1, :].tolist() == [[0.0, 3.0], [1.0, 2.0]]  # B_1: (h, j) entry p^h_1j
    assert scheme.p[1, 1, 1] == 2

    ed = eigendata(scheme)
    expect = np.array([[1.0, 3.0], [1.0, -1.0]])
    assert np.allclose(ed.P, expect, atol=1e-12)
    assert np.allclose(ed.Q, expect, atol=1e-12)
    assert np.allclose(ed.m, [1.0, 3.0], atol=1e-12)
    # dual route by hand: v = P (Q_s1 Q_s1)_s / 4 = (3, 2)
    assert ed.q[0, 1, 1] == pytest.approx(3.0, abs=1e-12)
    assert ed.q[1, 1, 1] == pytest.approx(2.0, abs=1e-12)


def test_complete_four_projectors():
    scheme = relation_scheme("complete", 4)
    ed = eigendata(scheme)
    E = projectors_from_relations(scheme, ed)
    # E_0 = J/4, E_1 = I - J/4
    assert np.allclose(E[0], np.full((4, 4), 0.25), atol=1e-12)
    assert np.allclose(E[1], np.eye(4) - 0.25, atol=1e-12)
    for i, Ei in enumerate(E):
        assert np.trace(Ei) == pytest.approx(ed.m[i], abs=1e-9)
        assert np.linalg.matrix_rank(Ei, tol=1e-8) == round(ed.m[i])


def test_cube3_frozen_battery():
    scheme = builtin_scheme("hypercube", 3)
    assert scheme.size == 8 and scheme.d == 3
    assert scheme.k.tolist() == [1, 3, 3, 1]
    B1 = scheme.p[:, 1, :]
    assert B1.tolist() == [
        [0.0, 3.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 2.0, 0.0, 1.0],
        [0.0, 0.0, 3.0, 0.0],
    ]
    ed = eigendata(scheme)
    assert np.allclose(ed.P, CUBE3_P, atol=1e-9)
    assert np.allclose(ed.Q, CUBE3_P, atol=1e-9)  # self-dual
    assert np.allclose(ed.m, [1.0, 3.0, 3.0, 1.0], atol=1e-9)
    assert np.allclose(ed.q, scheme.p, atol=1e-9)


def rook_scheme(m, n):
    """K_m x K_n on the cells of an m x n board: same cell, same row, same
    column, neither.  Not self-dual as numbered: P != Q and q != p."""
    row, col = np.divmod(np.arange(m * n), n)
    same_row = row[:, None] == row[None, :]
    same_col = col[:, None] == col[None, :]
    cells = (same_row & same_col, same_row & ~same_col, ~same_row & same_col, ~same_row & ~same_col)
    return scheme_from_relations([c.astype(np.int8) for c in cells])


def test_krein_matches_trace_oracle():
    schemes = [relation_scheme(name, n) for name, n in (("complete", 5), ("hypercube", 3), ("hypercube", 4))]
    for scheme in schemes + [rook_scheme(3, 4)]:
        ed = eigendata(scheme)
        ref = krein_by_trace(scheme, ed)
        assert np.max(np.abs(ed.q - ref)) <= 1e-8 * scheme.size
    # the rook scheme tells P from Q and q from p, so a P <-> Q swap in the
    # closed form would fail the trace oracle above
    assert scheme.k.tolist() == [1, 3, 2, 6]
    assert np.max(np.abs(ed.P - ed.Q)) > 0.1
    assert np.max(np.abs(ed.q - scheme.p)) > 0.1


def test_bose_mesner_closure():
    scheme = relation_scheme("hypercube", 3)
    mats = [np.asarray(m, dtype=float) for m in scheme.relations]
    for i in range(scheme.d + 1):
        for j in range(scheme.d + 1):
            prod = mats[i] @ mats[j]
            recon = sum(scheme.p[h, i, j] * mats[h] for h in range(scheme.d + 1))
            assert np.array_equal(prod, recon), (i, j)


def test_valency_weights_symmetrize_intersection_matrices():
    for name, n in (("hypercube", 4), ("complete", 6)):
        scheme = builtin_scheme(name, n)
        ed = eigendata(scheme)
        K = np.diag(scheme.k.astype(float))
        M = np.diag(ed.m)
        for i in range(scheme.d + 1):
            B = scheme.p[:, i, :]
            assert np.max(np.abs(K @ B - B.T @ K)) <= 1e-9 * scheme.size
            Bs = ed.q[:, i, :]
            assert np.max(np.abs(M @ Bs - Bs.T @ M)) <= 1e-9 * scheme.size


def test_rho_idempotents_representation():
    scheme = builtin_scheme("hypercube", 3)
    ed = eigendata(scheme)
    dp1 = scheme.d + 1
    rhos = [np.outer(ed.Q[:, i], ed.P[i, :]) / scheme.size for i in range(dp1)]
    total = sum(rhos)
    assert np.allclose(total, np.eye(dp1), atol=1e-9)
    for i in range(dp1):
        for j in range(dp1):
            target = rhos[i] if i == j else np.zeros((dp1, dp1))
            assert np.allclose(rhos[i] @ rhos[j], target, atol=1e-9)
    # reconstruction: B_j = sum_i P[i, j] rho_i
    for j in range(dp1):
        recon = sum(ed.P[i, j] * rhos[i] for i in range(dp1))
        assert np.allclose(recon, scheme.p[:, j, :], atol=1e-8)


def test_eigendata_is_deterministic():
    scheme = builtin_scheme("hypercube", 3)
    a, b = eigendata(scheme), eigendata(scheme)
    for name in ("P", "Q", "q"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_eigendata_residual_failure_is_a_spectral_identity_error():
    with pytest.raises(SpectralIdentityError) as info:
        eigendata(builtin_scheme("hypercube", 3), Tolerance(residual_tol=0.0))
    assert info.value.residual > info.value.bound == 0.0


def test_eigendata_collision_names_the_smallest_gap(monkeypatch):
    # equal coefficients make the combination sum_i B_i, of rank one: |X| once
    # and 0 three times, which no certified gap separates
    class Equal:
        def uniform(self, low, high, size):
            return np.ones(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Equal())
    for tol in (DEFAULT_TOL, Tolerance(eig_tol=0.0)):  # eig_tol is not read
        with pytest.raises(DegenerateSpectrumError) as info:
            eigendata(builtin_scheme("hypercube", 3), tol)
        named = re.search(r"colliding eigenvalues: its smallest gap (\S+) is not certified$", str(info.value))
        assert 0.0 <= float(named.group(1)) < 1e-12


def test_ptensor_only_scheme_matches_relations_route():
    rel = relation_scheme("hypercube", 3)
    bare = scheme_from_p_tensor(rel.p, rel.k)
    assert bare.relations is None
    ed_rel = eigendata(rel)
    ed_bare = eigendata(bare)
    assert np.allclose(ed_rel.P, ed_bare.P, atol=1e-12)
    assert np.allclose(ed_rel.q, ed_bare.q, atol=1e-12)


def test_detection_on_cube_and_complete():
    cube = builtin_scheme("hypercube", 3)
    ed = eigendata(cube)
    assert detect_p_polynomial(cube) == ((1, (0, 1, 2, 3), 3),)
    assert detect_q_polynomial(ed) == ((1, (0, 1, 2, 3), 3),)
    k4 = builtin_scheme("complete", 4)
    assert detect_p_polynomial(k4) == ((1, (0, 1), 1),)


def test_scheme_checks_read_the_eigendata_tolerance():
    # the dual matrix of generator i reaches back from i to 0 through
    # q^i_i0 = 1, which zero_tol 1.5 counts as a zero: the checks on that
    # eigendata read its tolerance and see no Q-polynomial ordering
    cube = builtin_scheme("hypercube", 4)
    loose = Tolerance(zero_tol=1.5)
    ed = eigendata(cube, loose)
    assert ed.tol is loose
    assert detect_q_polynomial(ed) == ()
    assert not check_scheme_characterization(ed, "q", 1, 4).side_i
    hamming = {(1, (0, 1, 2, 3, 4), 4), (3, (0, 3, 2, 1, 4), 4)}
    ed = eigendata(cube)
    assert ed.tol == DEFAULT_TOL
    assert set(detect_q_polynomial(ed)) == hamming
    assert check_scheme_characterization(ed, "q", 1, 4).side_i


def test_even_cube_second_structure():
    cube = builtin_scheme("hypercube", 4)
    structs = detect_p_polynomial(cube)
    assert set(structs) == {(1, (0, 1, 2, 3, 4), 4), (3, (0, 3, 2, 1, 4), 4)}


def reference_orderings(stack, tol):
    """The scan's reference: the set walk of `reference_path_order` per generator."""
    masks = gamma(np.asarray(stack), tol)
    found = []
    for i in range(1, len(stack)):
        order = reference_path_order(masks[i])
        if order is None or 0 not in (order[0], order[-1]):
            continue
        path = order if order[0] == 0 else tuple(reversed(order))
        if path[1] != i:
            raise RuntimeError(
                f"ordering for generator {i} starts 0 -> {path[1]}; structural invariant broken"
            )
        found.append(PolyStructure(generator=i, ordering=path, last=path[-1]))
    return tuple(found)


def scan_outcome(scan, stack, tol):
    try:
        return scan(stack, tol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def random_generator_matrix(rng, n, i, zero_tol):
    """One generator's matrix: random, a planted path, or a near miss of one."""
    M = np.diag(rng.uniform(-2.0, 2.0, n))
    kind = int(rng.integers(6))
    if kind == 0:  # random pattern
        return M + rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.6))
    perm = rng.permutation(n).tolist()
    if rng.random() < 0.7:  # 0 at an end, often followed by the generator
        head = [0, i] if i and rng.random() < 0.7 else [0]
        perm = head + [v for v in perm if v not in head]
        if rng.random() < 0.5:
            perm.reverse()
    ends = [(perm[a], perm[a + 1]) for a in range(n - 1)]
    if kind == 3 and n >= 5:  # path on perm[:cut] plus a cycle on the rest
        cut = int(rng.integers(2, n - 2))
        ends = ends[: cut - 1] + ends[cut:] + [(perm[cut], perm[-1])]
    for a, b in ends:
        M[a, b], M[b, a] = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
    if kind == 2 and ends:  # a one-way arc
        a, b = ends[int(rng.integers(len(ends)))]
        M[a, b] = 0.0
    if kind == 4:  # entries at the threshold are zero, just above it not
        a, b = rng.integers(n, size=2)
        M[a, b] = M[b, a] = rng.choice([zero_tol, -zero_tol, np.nextafter(zero_tol, 1.0)])
        if ends and rng.random() < 0.3:
            a, b = ends[int(rng.integers(len(ends)))]
            M[a, b] = M[b, a] = zero_tol
    if kind == 5 and rng.random() < 0.1:
        M[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf])
    return M


def test_tensor_scan_matches_per_generator_walk():
    rng = np.random.default_rng(20260801)
    tol = Tolerance(zero_tol=1e-11)
    kinds = {"found": 0, "none": 0, "raised": 0}
    for _ in range(2000):
        n = int(rng.integers(1, 9))  # d = 0 .. 7
        stack = np.array([random_generator_matrix(rng, n, i, tol.zero_tol) for i in range(n)])
        got = scan_outcome(_polynomial_orderings, stack, tol)
        assert got == scan_outcome(reference_orderings, stack, tol), stack
        kinds["none" if not got else "raised" if isinstance(got[0], type) else "found"] += 1
    assert min(kinds.values()) >= 50, kinds

    # every scheme the detection tests build, both sides
    built = [builtin_scheme("hypercube", n) for n in range(1, 13)]
    built += [builtin_scheme("complete", n) for n in (2, 4)] + [rook_scheme(3, 4)]
    for scheme in built:
        ed = eigendata(scheme)
        p_mats = scheme.p.transpose(1, 0, 2)
        assert detect_p_polynomial(scheme) == reference_orderings(p_mats, DEFAULT_TOL)
        assert detect_q_polynomial(ed) == reference_orderings(ed.q.transpose(1, 0, 2), DEFAULT_TOL)


def test_endpoint_check_cube3():
    ed = eigendata(builtin_scheme("hypercube", 3))
    rep = check_scheme_characterization(ed, "p", 1, 3)
    assert rep.side_i and rep.side_ii
    assert np.allclose(rep.theta, [3.0, 1.0, -1.0, -3.0], atol=1e-9)
    assert np.allclose(rep.expected, [1.0, -3.0, 3.0, -1.0], atol=1e-9)
    assert rep.max_deviation <= 1e-9
    wrong_last = check_scheme_characterization(ed, "p", 1, 2)
    assert rep.equivalent and not wrong_last.side_i and not wrong_last.side_ii
    dual = check_scheme_characterization(ed, "q", 1, 3)
    assert dual.side_i and dual.side_ii


def test_endpoint_check_cube4():
    ed = eigendata(builtin_scheme("hypercube", 4))
    rep = check_scheme_characterization(ed, "p", 1, 4)
    assert rep.side_i and rep.side_ii
    assert np.allclose(rep.theta, [4.0, 2.0, 0.0, -2.0, -4.0], atol=1e-9)
    assert np.allclose(rep.expected, [1.0, -4.0, 6.0, -4.0, 1.0], atol=1e-9)
    assert float(np.min(ed.q)) >= -1e-9


def test_endpoint_check_repeated_theta_column():
    # generator 2 of the 4-cube: eigenvalue column (6, 0, -2, 0, 6) repeats,
    # and the distance-2 matrix is not a path either; both sides fail
    ed = eigendata(builtin_scheme("hypercube", 4))
    rep = check_scheme_characterization(ed, "p", 2, 4)
    assert not rep.side_i and not rep.side_ii
    assert rep.expected is None
    assert rep.equivalent


def test_endpoint_check_gap_product_overflow_is_a_numerical_error():
    # 120 distinct eigenvalues over [0, 2000]: most gap products overflow, and the
    # check raises instead of comparing against inf and NaN ratios
    d = 119
    eigen = np.zeros((d + 1, d + 1))
    eigen[:, 1] = np.linspace(2000.0, 0.0, d + 1)
    ed = dataclasses.replace(eigendata(builtin_scheme("complete", 4)), P=eigen, Q=np.ones((d + 1, d + 1)))
    with pytest.raises(DegenerateSpectrumError, match="gap products overflow the float range"):
        check_scheme_characterization(ed, "p", 1, d)


def test_endpoint_check_index_validation():
    ed = eigendata(builtin_scheme("complete", 4))
    with pytest.raises(ValueError):
        check_scheme_characterization(ed, "p", 0, 1)
    with pytest.raises(ValueError):
        check_scheme_characterization(ed, "q", 1, 2)
    with pytest.raises(ValueError, match="unknown kind 'P'"):
        check_scheme_characterization(ed, "P", 1, 1)


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin_scheme("hypercube", 13)  # 8192 vertices over the cap
    with pytest.raises(ValueError):
        builtin_scheme("complete", 1)
    with pytest.raises(ValueError):
        builtin_scheme("petersen", 10)


def test_relations_validation_witnesses():
    eye = np.eye(3, dtype=np.int8)
    J = np.ones((3, 3), dtype=np.int8)
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([J - eye, eye])  # relation 0 not the identity
    assert info.value.axiom == "identity_relation"
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([eye, eye])  # off-diagonal pairs uncovered
    assert info.value.axiom == "partition"
    asym = np.zeros((3, 3), dtype=np.int8)
    asym[0, 1] = asym[1, 2] = asym[2, 0] = 1
    sym_rest = J - eye - asym
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([eye, asym, sym_rest])
    assert info.value.axiom == "symmetry"
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([eye, J - eye, np.zeros((3, 3), dtype=np.int8)])
    assert info.value.axiom == "nonempty"
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([eye, 2 * (J - eye)])
    assert info.value.axiom == "binary"


def test_relations_regularity_witness():
    # path graph P_3 is not distance-regular from the middle vertex
    adj = np.zeros((3, 3), dtype=np.int8)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    rest = np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8) - adj
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_relations([np.eye(3, dtype=np.int8), adj, rest])
    assert info.value.axiom in ("regularity", "row_sums", "valency_balance")


K2_PTENSOR = "K 1 1\nP 0\n1 0\n0 1\nP 1\n0 1\n1 0\n"  # the one-class scheme on two points


def _negative_count():
    p = builtin_scheme("hypercube", 3).p.copy()
    p[2, 1, 3] = -1
    return scheme_from_p_tensor(p, [1, 3, 3, 1])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: scheme_from_p_tensor(np.zeros((2, 3, 3), dtype=np.int64), [1, 1]), "tensor_shape"),
        (lambda: scheme_from_p_tensor(np.full((2, 2, 2), 1.5), [1, 1]), "tensor_shape"),
        (_negative_count, "nonnegativity"),
        (lambda: scheme_from_p_tensor(
            [np.diag([1, 2, 3]), [[0, 1, 0], [1, 0, 1], [0, 1, 2]], [[0, 0, 1], [0, 0, 2], [1, 2, 0]]], [1, 2, 3]),
         "valency_balance"),
        (lambda: scheme_from_relations([]), "partition"),
        (lambda: scheme_from_relations([np.eye(2, dtype=np.int8), np.ones((3, 3), dtype=np.int8)]), "shape"),
        (lambda: read_scheme("SCHEME X=2 D=1 FORM=PTENSOR\nK 1\n"),
         "line 2: expected 'K' line with 2 valencies"),
        (lambda: read_scheme("SCHEME X=5 D=1 FORM=PTENSOR\n" + K2_PTENSOR),
         "line 1: header says X=5 D=1, content gives X=2 D=1"),
    ],
    ids=["tensor_not_cubic", "tensor_not_integer", "nonnegativity", "valency_balance", "no_relation",
         "relation_sizes", "short_K_line", "header_size"],
)
def test_scheme_validation_sites(build, error):
    """The axiom tag of each SchemeValidationError, or the whole ParseError message."""
    with pytest.raises((SchemeValidationError, ParseError)) as info:
        build()
    got = info.value.axiom if isinstance(info.value, SchemeValidationError) else str(info.value)
    assert got == error


def triple_count_oracle(mats):
    """Brute-force p^h_ij over all (i, j, h) in float64; test-side reference.

    Raises the regularity SchemeValidationError at the first failing
    (i, j, h) in loop order, at the first bad pair of R_h in row-major order.
    """
    dp1 = len(mats)
    F = [np.asarray(m, dtype=float) for m in mats]
    supports = [np.asarray(m).astype(bool) for m in mats]
    p = np.zeros((dp1, dp1, dp1), dtype=np.int64)
    for i in range(dp1):
        for j in range(dp1):
            M = np.rint(F[i] @ F[j]).astype(np.int64)
            for h in range(dp1):
                vals = M[supports[h]]
                v0 = int(vals[0])
                if not np.all(vals == v0):
                    x, y = np.argwhere(supports[h])[int(np.argmax(vals != v0))]
                    raise SchemeValidationError(
                        "regularity", (h, i, j), f"triple count at pair ({x}, {y}) differs from {v0}"
                    )
                p[h, i, j] = v0
    return p


def johnson_relations(v, k):
    """J(v, k) on the k-subsets of v points, R_h: intersection size k - h."""
    from itertools import combinations

    sets = np.array([[x in c for x in range(v)] for c in combinations(range(v), k)], dtype=int)
    dist = k - sets @ sets.T
    return [(dist == h).astype(np.int8) for h in range(k + 1)]


def johnson_exact_krein(v, k):
    """Exact P and Krein tensor q[h, i, j] of J(v, k) from the Eberlein closed form.

    P[j, h] = sum_r (-1)^r C(j, r) C(k - j, h - r) C(v - k - j, h - r) on
    eigenspace j, ordered by descending theta_j = P[j, 1]; Q[h, j] = m_j P[j, h] / k_h
    with m_j = C(v, j) - C(v, j - 1); q^h_ij = |X|^-1 sum_l P[h, l] Q[l, i] Q[l, j].
    """
    from fractions import Fraction
    from math import comb

    dp1 = k + 1

    def eberlein(j, h):
        return sum((-1) ** r * comb(j, r) * comb(k - j, h - r) * comb(v - k - j, h - r) for r in range(h + 1))

    P = [[eberlein(j, h) for h in range(dp1)] for j in range(dp1)]
    m = [comb(v, j) - (comb(v, j - 1) if j else 0) for j in range(dp1)]
    Q = [[Fraction(m[j] * P[j][h], P[0][h]) for j in range(dp1)] for h in range(dp1)]
    size = comb(v, k)
    q = [
        [[sum(P[h][l] * Q[l][i] * Q[l][j] for l in range(dp1)) / size for j in range(dp1)] for i in range(dp1)]
        for h in range(dp1)
    ]
    return P, q


def test_q_side_detection_on_johnson_schemes():
    """J(v, 3) is not self-dual; the expected Q-orderings come from exact Krein parameters."""
    natural = (1, (0, 1, 2, 3), 3)
    expected = {6: {natural, (3, (0, 3, 2, 1), 1)}, 7: {natural}, 8: {natural}}
    for v, want in expected.items():
        k = 3
        scheme = scheme_from_relations(johnson_relations(v, k))
        ed = eigendata(scheme)
        P, q = johnson_exact_krein(v, k)
        assert np.allclose(ed.P, np.array(P, dtype=float), atol=1e-9)
        assert np.allclose(ed.q, np.array(q, dtype=float), atol=1e-9)
        assert not np.allclose(ed.P, ed.Q) and not np.allclose(ed.q, scheme.p)
        exact = set()
        for i in range(1, k + 1):
            support = np.array([[q[h][i][j] != 0 for j in range(k + 1)] for h in range(k + 1)])
            order = reference_path_order(support)
            if order is not None and order[0] == 0:
                exact.add((i, order, order[-1]))
        assert exact == want, v
        assert set(detect_q_polynomial(ed)) == exact
        rep = check_scheme_characterization(ed, "q", 1, k)
        assert rep.side_i and rep.side_ii
        for c in range(1, k):
            rep = check_scheme_characterization(ed, "q", 1, c)
            assert not rep.side_i and not rep.side_ii, (v, c)


def test_endpoint_side_i_reads_generator_b_as_the_full_scan_does():
    # side_i reads generator b's pattern alone; a generator yields at most
    # one structure, so it must agree with the scan of every generator
    schemes = [builtin_scheme("hypercube", n) for n in (2, 3, 4, 5, 6)]
    schemes += [scheme_from_relations(johnson_relations(v, k)) for v, k in ((5, 2), (6, 3), (7, 3), (8, 4))]
    schemes += [rook_scheme(m, n) for m, n in ((2, 2), (3, 3), (3, 4))]
    held = 0
    for scheme in schemes:
        ed = eigendata(scheme)
        d = len(ed.P) - 1
        for kind, structures in (("p", detect_p_polynomial(scheme, ed.tol)), ("q", detect_q_polynomial(ed))):
            for b in range(1, d + 1):
                for c in range(1, d + 1):
                    want = any(st.generator == b and st.last == c for st in structures)
                    assert check_scheme_characterization(ed, kind, b, c).side_i == want, (kind, b, c)
                    held += want
    assert held >= 20, held


def test_triple_counting_matches_brute_force():
    cases = {
        "hypercube(5)": hamming_relations(5),
        "complete(7)": complete_relations(7),
        "rook(3, 4)": rook_scheme(3, 4).relations,
        "J(6, 3)": johnson_relations(6, 3),
    }
    for name, mats in cases.items():
        scheme = scheme_from_relations(mats)
        assert scheme.p.dtype == np.int64
        assert np.array_equal(scheme.p, triple_count_oracle(mats)), name
    assert scheme.size == 20 and scheme.k.tolist() == [1, 9, 9, 1]
    # the products with the last relation come from sum_j A_j = J, so each
    # relation takes the last number d in turn
    for name in ("rook(3, 4)", "J(6, 3)"):
        mats = cases[name]
        d = len(mats) - 1
        for r in range(1, d + 1):
            renumbered = [mats[h] for h in [0, *(h for h in range(1, d + 1) if h != r), r]]
            assert np.array_equal(scheme_from_relations(renumbered).p, triple_count_oracle(renumbered)), (name, r)
    # d = 1 forms no product at all; the 1-point scheme has only R_0
    for mats in (complete_relations(5), [np.ones((1, 1), dtype=np.int8)]):
        scheme = scheme_from_relations(mats)
        assert np.array_equal(scheme.p, triple_count_oracle(mats))
        assert scheme.k.tolist() == [int(m.sum(axis=1)[0]) for m in mats]
    assert (scheme.size, scheme.d, scheme.p.tolist()) == (1, 0, [[[1]]])


def test_regularity_witness_matches_brute_force():
    eye3 = np.eye(3, dtype=np.int8)
    adj = np.zeros((3, 3), dtype=np.int8)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    path3 = [eye3, adj, np.ones((3, 3), dtype=np.int8) - eye3 - adj]

    cube = hamming_relations(4)
    for (x, y), src, dst in (((0, 1), 1, 2), ((5, 6), 2, 1)):
        assert cube[src][x, y] == 1
        for a, b in ((x, y), (y, x)):
            cube[src][a, b], cube[dst][a, b] = 0, 1

    rng = np.random.default_rng(20240611)
    upper = np.triu(rng.integers(1, 4, size=(12, 12)), 1)
    labels = upper + upper.T
    random3 = [(labels == h).astype(np.int8) for h in range(4)]

    # one pair of R_{d-1} and one of R_d trade relations: the valencies stay
    # the same, so only regularity fails, and the witness must be the full
    # loop's first failure although no product with A_d is formed
    johnson = johnson_relations(6, 3)
    for (x, y), src, dst in (((0, 7), 2, 3), ((0, 19), 3, 2)):
        assert johnson[src][x, y] == 1
        for a, b in ((x, y), (y, x)):
            johnson[src][a, b], johnson[dst][a, b] = 0, 1

    for mats in (path3, cube, random3, johnson):
        with pytest.raises(SchemeValidationError) as want:
            triple_count_oracle(mats)
        with pytest.raises(SchemeValidationError) as got:
            scheme_from_relations(mats)
        assert got.value.axiom == want.value.axiom == "regularity"
        assert got.value.witness == want.value.witness
        assert str(got.value) == str(want.value)


def test_eigenmatrix_rows_sort_like_rounded_tuples():
    # rook(m, n) has P column 1 = (n-1, n-1, -1, -1): ties after the valency
    # row and between the last two rows, which the later columns break.  The
    # combination's eigenvalues rank the rows in more than one order across
    # these boards (the long ones swap the middle two), so the sort must act
    for m, n in ((3, 4), (4, 3), (2, 7), (22, 2), (32, 3)):
        ed = eigendata(rook_scheme(m, n))
        assert sorted(np.round(ed.P[1:, 1], 9).tolist()) == [-1.0, -1.0, n - 1.0]
        want = sorted(ed.P[1:], key=lambda r: tuple(np.round(r[1:], 9)), reverse=True)
        assert np.array_equal(ed.P[1:], np.array(want)), (m, n)


def test_float32_counting_exact_on_hypercube9():
    from math import comb

    n = 9
    scheme = scheme_from_relations(hamming_relations(n))
    assert scheme.size == 512

    def closed_form(h, i, j):
        a2, b2 = h + i - j, i + j - h
        if a2 % 2 or a2 < 0 or b2 < 0:
            return 0
        a, b = a2 // 2, b2 // 2
        return comb(h, a) * comb(n - h, b) if a <= h and b <= n - h else 0

    expected = np.array(
        [[[closed_form(h, i, j) for j in range(n + 1)] for i in range(n + 1)] for h in range(n + 1)]
    )
    assert np.array_equal(scheme.p, expected)
    assert int(scheme.p.max()) == 126


def test_builtin_closed_form_matches_triple_counting():
    cases = [("hypercube", n) for n in range(1, 9)] + [("complete", n) for n in (2, 3, 64, 200)]
    for name, n in cases:
        built, counted = builtin_scheme(name, n), relation_scheme(name, n)
        assert built.relations is None
        assert (built.size, built.d) == (counted.size, counted.d), (name, n)
        assert built.p.dtype == counted.p.dtype and built.k.dtype == counted.k.dtype
        assert np.array_equal(built.p, counted.p), (name, n)
        assert np.array_equal(built.k, counted.k), (name, n)


def test_builtin_allocates_no_relation_matrix():
    import tracemalloc

    tracemalloc.start()
    try:
        scheme = builtin_scheme("hypercube", 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scheme.size == 4096 and scheme.relations is None
    assert peak < scheme.size**2 // 16  # one int8 relation matrix takes |X|^2 bytes


def test_p_tensor_validation_witnesses():
    cube = builtin_scheme("hypercube", 3)
    bad = cube.p.copy()
    bad[1, 1, 2] += 1
    with pytest.raises(SchemeValidationError):
        scheme_from_p_tensor(bad, cube.k)
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_p_tensor(cube.p, np.array([2, 3, 3, 1]))
    assert info.value.axiom == "valencies"


@pytest.mark.parametrize("k", [[1, 2.4], [1, 2, 3], [[1, 2]]], ids=["fractional", "too_long", "two_dimensional"])
def test_p_tensor_valencies_must_be_d_plus_1_integers(k):
    complete3 = [[[1, 0], [0, 2]], [[0, 1], [1, 1]]]
    assert scheme_from_p_tensor(complete3, [1, 2]).k.tolist() == [1, 2]
    with pytest.raises(SchemeValidationError) as info:
        scheme_from_p_tensor(complete3, k)
    assert info.value.axiom == "valencies"


def test_p_tensor_delta_witnesses_are_first_in_row_major_order():
    # loop references: the first failing (h, 0, j), then the first failing (0, i, j)
    def first_identity_failure(p):
        dp1 = p.shape[0]
        return next((h, 0, j) for h in range(dp1) for j in range(dp1) if p[h, 0, j] != (h == j))

    def first_diagonal_failure(p, k):
        dp1 = p.shape[0]
        return next((0, i, j) for i in range(dp1) for j in range(dp1) if p[0, i, j] != (k[i] if i == j else 0))

    cube = builtin_scheme("hypercube", 3)
    for spots in ([(1, 0, 2)], [(3, 0, 0), (1, 0, 1)], [(2, 0, 3), (0, 0, 1)]):
        bad = cube.p.copy()
        for spot in spots:
            bad[spot] += 1
        with pytest.raises(SchemeValidationError) as info:
            scheme_from_p_tensor(bad, cube.k)
        assert info.value.axiom == "identity_relation"
        assert info.value.witness == first_identity_failure(bad)
    for spots in ([(0, 2, 3)], [(0, 3, 3), (0, 1, 2)], [(0, 2, 1), (0, 1, 1)]):
        bad = cube.p.copy()
        for spot in spots:
            bad[spot] += 1
        with pytest.raises(SchemeValidationError) as info:
            scheme_from_p_tensor(bad, cube.k)
        assert info.value.axiom == "diagonal_counts"
        assert info.value.witness == first_diagonal_failure(bad, cube.k)
        assert str(info.value).endswith("p^0_ij must be delta_ij k_i")


def test_relations_prelude_accepts_any_zero_one_dtype():
    mats = hamming_relations(3)
    want = scheme_from_relations(mats)
    for dtype in (bool, np.uint8, np.int64, float):
        got = scheme_from_relations([m.astype(dtype) for m in mats])
        assert np.array_equal(got.p, want.p)
        assert all(r.dtype == np.int8 for r in got.relations)
    for value in (np.nan, 0.5, -1.0, 2.0):
        bad = [m.astype(float) for m in mats]
        bad[2][0, 3] = value
        with pytest.raises(SchemeValidationError) as info:
            scheme_from_relations(bad)
        assert (info.value.axiom, info.value.witness) == ("binary", 2)


def test_scheme_text_round_trip_relations(tmp_path):
    scheme = relation_scheme("hypercube", 3)
    text = write_scheme(scheme)
    assert text.startswith("SCHEME X=8 D=3 FORM=RELATIONS\n")
    back = read_scheme(text)
    assert back.size == 8 and back.d == 3
    assert np.array_equal(back.p, scheme.p)
    assert back.relations is not None
    path = tmp_path / "cube.scheme"
    write_scheme(scheme, str(path))
    assert np.array_equal(read_scheme(str(path)).p, scheme.p)


def test_scheme_text_round_trip_ptensor():
    scheme = scheme_from_p_tensor(builtin_scheme("hypercube", 3).p, [1, 3, 3, 1])
    text = write_scheme(scheme)
    assert text.startswith("SCHEME X=8 D=3 FORM=PTENSOR\n")
    back = read_scheme(text)
    assert back.relations is None
    assert np.array_equal(back.p, scheme.p)


def test_scheme_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        read_scheme("JUNK\n")
    assert info.value.lineno == 1
    with pytest.raises(ParseError) as info:
        read_scheme("SCHEME X=2 D=1 FORM=RELATIONS\nREL 0\n10\n01\nREL 9\n")
    assert info.value.lineno == 5
    with pytest.raises(ParseError) as info:
        read_scheme("SCHEME X=2 D=1 FORM=RELATIONS\nREL 0\n10\n0x\nREL 1\n01\n10\n")
    assert info.value.lineno == 4
    good = "SCHEME X=2 D=1 FORM=RELATIONS\nREL 0\n10\n01\nREL 1\n01\n10\n"
    with pytest.raises(ParseError):
        read_scheme(good + "EXTRA\n")
    # header contradicting the content
    with pytest.raises(ParseError):
        read_scheme(good.replace("X=2", "X=3"))
    with pytest.raises(ParseError) as info:
        read_scheme("SCHEME X=2 D=1 FORM=PTENSOR\nK 1 x\n")
    assert info.value.lineno == 2
    with pytest.raises(ParseError):
        read_scheme("SCHEME X=2 D=1 FORM=PTENSOR\nK 1 1\nP 0\n1 0\n0 1\n")
    rel = good.splitlines()  # line 6 is the first row of REL 1
    ptensor = "SCHEME X=2 D=1 FORM=PTENSOR\nK 1 1\nP 0\n1 0\n0 1\nP 1\n0 1\n1 0\n".splitlines()

    def edit(lines, changes):
        out = list(lines)
        for lineno, text in changes.items():
            out[lineno - 1] = text
        return "\n".join(out) + "\n"

    bad_row = "expected 2 characters of 0/1"
    cases = [
        (edit(rel, {6: "02"}), 6, bad_row),
        (edit(rel, {6: "0\u00e9"}), 6, bad_row),
        (edit(rel, {6: "0\u20ac"}), 6, bad_row),
        (edit(rel, {6: "0"}), 6, bad_row),
        # the first bad row wins over a later one of the other kind
        (edit(rel, {6: "0x", 7: "1"}), 6, bad_row),
        # the last block after good ones; a short row; non-ASCII; a missing final row
        (edit(rel, {7: "1x"}), 7, bad_row),
        (edit(rel, {3: "1"}), 3, bad_row),
        (edit(rel, {4: "0\uff11"}), 4, bad_row),
        (edit(rel, {4: "0\udcff"}), 4, bad_row),
        ("\n".join(rel[:-1]) + "\n", 6, "unexpected end of file"),
        (edit(ptensor, {8: "1 0.0"}), 8, "non-integer intersection number"),
        (edit(ptensor, {7: "x 1"}), 7, "non-integer intersection number"),
        (edit(ptensor, {4: "1 0 0"}), 4, "expected 2 integers"),
        (edit(ptensor, {4: "1 0 0", 5: "0 1 0", 7: "0 1 0", 8: "1 0 0"}), 4, "expected 2 integers"),
        (edit(ptensor, {5: "0 y", 7: "0 1 1"}), 5, "non-integer intersection number"),
        (edit(ptensor, {5: "0 y", 6: "P 7"}), 5, "non-integer intersection number"),
        (edit(ptensor, {5: "0 y"}) + "EXTRA\n", 5, "non-integer intersection number"),
        (edit(ptensor[:7], {5: "0 y"}), 5, "non-integer intersection number"),
        (edit(ptensor, {6: "P 0"}), 6, "expected 'P 1', got 'P 0'"),
        # integers beyond int64, on the K line and in a P row
        (edit(ptensor, {2: "K 1 99999999999999999999999"}), 2, "valency outside the int64 range"),
        (edit(ptensor, {4: "0 99999999999999999999999"}), 4, "intersection number outside the int64 range"),
        # a '#' after the start of a line does not begin a comment
        (edit(ptensor, {4: "1 0 #", 5: "0 1 #", 7: "0 1 #", 8: "1 0 #"}), 4, "expected 2 integers"),
    ]
    for text, lineno, message in cases:
        with pytest.raises(ParseError) as info:
            read_scheme(text)
        assert (info.value.lineno, str(info.value)) == (lineno, f"line {lineno}: {message}"), text
    # int() accepts digit-group underscores
    assert read_scheme(edit(ptensor, {4: "1 0_0"})).p[0, 0].tolist() == [1, 0]


def test_ptensor_reader_reads_every_row_before_allocating():
    # a K line matching D=100000 over a short body: the (d+1)^3 tensor would
    # take 7 PiB, so the body's first bad line must be named before it is made
    d = 100_000
    text = f"SCHEME X={d + 1} D={d} FORM=PTENSOR\nK {' '.join(['1'] * (d + 1))}\nP 0\n1 0\n"
    with pytest.raises(ParseError) as info:
        read_scheme(text)
    assert str(info.value) == f"line 4: expected {d + 1} integers"


def test_scheme_file_comments_and_blank_lines():
    text = (
        "# two points, one class\n\nSCHEME X=2 D=1 FORM=RELATIONS\n"
        "REL 0\n10\n01\n# the off-diagonal relation\nREL 1\n01\n10\n"
    )
    scheme = read_scheme(text)
    assert scheme.size == 2 and scheme.d == 1
    assert scheme.k.tolist() == [1, 1]
