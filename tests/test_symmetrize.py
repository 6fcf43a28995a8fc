"""Diagonal symmetrization: weight propagation, witnesses, closed form."""

from collections import deque

import numpy as np
import pytest

from spectralpath.digraph import _out_lists, gamma
from spectralpath.equivalence import analyze_matrix, clamp_nonnegative
from spectralpath.linalg import DEFAULT_TOL, _symmetrized_eigh
from spectralpath.symmetrize import NotSymmetrizable, Symmetrizer, _search
from suites import tridiagonal_symmetrizer

# intersection matrix of the nearest-neighbor relation in the 3-cube
B1_CUBE3 = np.array(
    [
        [0.0, 3.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 2.0, 0.0, 1.0],
        [0.0, 0.0, 3.0, 0.0],
    ]
)


def search(A, tol=DEFAULT_TOL):
    """The symmetrizer search of `A` alone, with no spectrum classified: what `analyze_matrix` stores."""
    A = clamp_nonnegative(A, tol)
    nz = gamma(A, tol)
    return _search(A, nz, _out_lists(nz), tol)


def conjugate(sym, A):
    """D A D^-1 for D = diag(sym.delta)."""
    d = sym.delta
    return (A * d[:, None]) / d[None, :]


def test_two_by_two_weights_and_conjugation():
    A = np.array([[0.0, 2.0], [8.0, 0.0]])
    sym = analyze_matrix(A).symmetrizer
    assert isinstance(sym, Symmetrizer)
    # detailed balance: w_0 A_01 = w_1 A_10 forces w_1 = 2/8
    assert np.allclose(sym.kappa, [1.0, 0.25], atol=1e-14)
    assert np.allclose(sym.delta, [1.0, 0.5], atol=1e-14)
    S = conjugate(sym, A)
    assert np.allclose(S, [[0.0, 4.0], [4.0, 0.0]], atol=1e-14)
    assert np.allclose(S, S.T, atol=1e-14)


def test_closed_form_matches_propagation_on_cube_matrix():
    closed = tridiagonal_symmetrizer(B1_CUBE3)
    assert np.allclose(closed.kappa, [1.0, 3.0, 3.0, 1.0], atol=1e-14)
    searched = analyze_matrix(B1_CUBE3).symmetrizer
    assert isinstance(searched, Symmetrizer)
    assert np.allclose(searched.kappa, closed.kappa, atol=1e-13)
    # the eigensolve both sides share: D A D^-1 = V diag(w) V^T, w descending
    w, V = _symmetrized_eigh(B1_CUBE3, closed.delta)
    assert np.allclose(w, [3.0, 1.0, -1.0, -3.0], atol=1e-13)
    assert np.allclose((V * w) @ V.T, conjugate(closed, B1_CUBE3), atol=1e-13)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-13)


def test_symmetric_input_gets_unit_weights():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    sym = analyze_matrix(A).symmetrizer
    assert isinstance(sym, Symmetrizer)
    assert np.allclose(sym.kappa, [1.0, 1.0])


def test_asymmetric_pattern_witness():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = analyze_matrix(A).symmetrizer
    assert isinstance(out, NotSymmetrizable)
    assert out.reason == "asymmetric_pattern"
    assert out.witness == (0, 1)


def test_inconsistent_cycle_witness():
    # triangle with product of ratios around the cycle not equal to 1
    A = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    out = analyze_matrix(A).symmetrizer
    assert isinstance(out, NotSymmetrizable)
    assert out.reason == "inconsistent_cycle"


@pytest.mark.parametrize("alpha", [1.0, 1e-4, 1e-8, 1e-9])
def test_inconsistent_cycle_found_at_every_scale(alpha):
    # cycle ratio 1/2 at every scale: w_1 A_12 = alpha / 2 against w_2 A_21 =
    # alpha.  An absolute floor of 1 in the consistency bound let it pass
    # below alpha = 2e-8, with weights (1, 0.5, 1).
    T = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert search(alpha * T) == NotSymmetrizable("inconsistent_cycle", (1, 2))


def test_disconnected_components_each_rooted_at_one():
    A = np.zeros((4, 4))
    A[0, 1] = 2.0
    A[1, 0] = 1.0
    A[2, 3] = 1.0
    A[3, 2] = 4.0
    sym = analyze_matrix(A).symmetrizer
    assert isinstance(sym, Symmetrizer)
    assert np.allclose(sym.kappa, [1.0, 2.0, 1.0, 0.25], atol=1e-14)


def test_detailed_balance_on_random_conjugates():
    """Conjugating a symmetric matrix by random positive D stays detectable."""
    rng = np.random.default_rng(90210)
    for n in (2, 4, 7, 10):
        for _ in range(8):
            S = rng.normal(size=(n, n))
            S = np.abs(S + S.T) + 0.1  # nonnegative; the offset keeps every entry structurally nonzero
            d = rng.uniform(0.25, 4.0, size=n)
            A = (S * d[:, None]) / d[None, :]
            sym = search(A)
            assert isinstance(sym, Symmetrizer)
            K = np.diag(sym.kappa)
            assert np.max(np.abs(K @ A - A.T @ K)) <= 1e-9 * max(1.0, np.max(np.abs(A)))
            back = conjugate(sym, A)
            assert np.allclose(back, back.T, atol=1e-9 * max(1.0, np.max(np.abs(A))))


def test_weights_unique_up_to_scale_on_connected_support():
    rng = np.random.default_rng(1212)
    n = 6
    diag = rng.uniform(0.0, 2.0, size=n)
    off = rng.uniform(0.1, 2.0, size=(2, n - 1))
    A = np.diag(diag) + np.diag(off[0], 1) + np.diag(off[1], -1)
    sym = analyze_matrix(A).symmetrizer
    closed = tridiagonal_symmetrizer(A)
    ratio = sym.kappa / closed.kappa
    assert np.max(ratio) / np.min(ratio) - 1.0 <= 1e-12


def test_weights_out_of_float_range_raise_naming_the_vertex():
    # entry ratios of 1e-159 give weights 1e-159, 1e-318 (subnormal, still
    # positive) and 0; ratios of 1e159 give 1e159 and inf.  Neither 0 nor inf
    # may pass as a weight.
    for sup, sub, message in ((1e-9, 1e150, "vertex 3 is 0.0"), (1e150, 1e-9, "vertex 2 is inf")):
        A = np.diag([sup] * 4, 1) + np.diag([sub] * 4, -1)
        with pytest.raises(RuntimeError, match=f"weight of {message}"):
            analyze_matrix(A)


def test_closed_form_rejects_bad_shapes():
    with pytest.raises(ValueError):
        tridiagonal_symmetrizer(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        tridiagonal_symmetrizer(np.array([[0.0, 0.0], [1.0, 0.0]]))
    full = np.ones((3, 3))
    with pytest.raises(ValueError):
        tridiagonal_symmetrizer(full)


def _loop_symmetrizer(A, tol=DEFAULT_TOL):
    """Entry-by-entry reference: pattern test, BFS propagation, consistency."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    nz = np.abs(A) > tol.zero_tol
    for i in range(n):
        for j in range(i + 1, n):
            if nz[i, j] != nz[j, i]:
                return NotSymmetrizable("asymmetric_pattern", (i, j))
    w = np.ones(n)
    visited = np.zeros(n, dtype=bool)
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if i != j and nz[i, j] and not visited[j]:
                    visited[j] = True
                    w[j] = w[i] * A[i, j] / A[j, i]
                    if not (0.0 < w[j] < np.inf):
                        raise RuntimeError(f"symmetrizer weight of vertex {j} is {float(w[j])!r}, out of float range")
                    queue.append(j)
    for i in range(n):
        for j in range(i + 1, n):
            if not nz[i, j]:
                continue
            lhs = w[i] * A[i, j]
            rhs = w[j] * A[j, i]
            if abs(lhs - rhs) > tol.residual_tol * max(abs(lhs), abs(rhs)):
                return NotSymmetrizable("inconsistent_cycle", (i, j))
    return Symmetrizer(kappa=w)


def _fuzz_matrix(rng, case: int) -> np.ndarray:
    """One seeded matrix; `case` picks the kind of input."""
    n = 1 if case == 0 else int(rng.integers(2, 13))
    density = rng.uniform(0.1, 1.0)
    S = np.triu(rng.uniform(0.1, 3.0, size=(n, n)) * (rng.random((n, n)) < density))
    S = S + np.triu(S, 1).T
    if case == 1:  # disconnected support: two diagonal blocks
        k = int(rng.integers(0, n))
        S[:k, k:] = 0.0
        S[k:, :k] = 0.0
    if case == 2:  # a path whose entry ratios drive the weights to overflow
        A = np.diag(rng.uniform(0.0, 3.0, size=n))
        k = np.arange(n - 1)
        A[k, k + 1] = 10.0 ** rng.uniform(0.0, 150.0, size=n - 1)
        A[k + 1, k] = 10.0 ** rng.uniform(-8.0, 0.0, size=n - 1)
        return A
    d = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    A = (S * d[:, None]) / d[None, :]
    i, j = rng.integers(0, n, size=2)
    if case == 3:  # asymmetric pattern
        A[i, j] = 0.0
    elif case == 4:  # a negative entry within the clamp threshold, which the clamp zeroes
        A[i, j] = -rng.choice([1.0, 0.5]) * DEFAULT_TOL.zero_tol
    elif case == 5:  # inconsistent cycle, large or near the residual bound
        A[i, j] *= 1.0 + rng.choice([0.5, 3e-8, 1e-8, 3e-9]) * rng.choice([-1.0, 1.0])
    elif case == 6:  # entries at and next to the zero threshold
        z = DEFAULT_TOL.zero_tol
        near = [z, np.nextafter(z, 1.0), np.nextafter(z, 0.0)]
        mask = rng.random((n, n)) < 0.3
        A[mask] = rng.choice(near, size=int(mask.sum()))
    return A


def test_symmetrizer_search_matches_loop_reference():
    """Same class, bitwise kappa, same reason and witness as the entry-by-entry loop,
    and the same error when a weight leaves the floating-point range."""
    rng = np.random.default_rng(4242)
    seen = set()
    with np.errstate(all="ignore"):
        for trial in range(2100):
            A = _fuzz_matrix(rng, trial % 7)
            try:
                ref = _loop_symmetrizer(A)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as info:
                    search(A)
                assert str(info.value) == str(exc), trial
                seen.add("out_of_range")
                continue
            got = search(A)
            assert type(got) is type(ref), trial
            if isinstance(ref, Symmetrizer):
                assert got.kappa.dtype == ref.kappa.dtype
                assert got.kappa.tobytes() == ref.kappa.tobytes(), trial
                seen.add("symmetrizable")
            else:
                assert (got.reason, got.witness) == (ref.reason, ref.witness), trial
                assert all(type(x) is int for x in got.witness)
                seen.add(ref.reason)
    assert seen == {"symmetrizable", "asymmetric_pattern", "inconsistent_cycle", "out_of_range"}
