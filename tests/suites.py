"""What the tests share: seeded instances, reference answers, text writers and the property suites.

Each suite sweeps seeded random instances through the package, asserts
every check on them, and returns the number of cases it checked with the
worst residuals it met, which the acceptance tests print.
"""

from pathlib import Path

import numpy as np

from spectralpath import schemes
from spectralpath.equivalence import analyze_matrix, check_characterization
from spectralpath.linalg import DEFAULT_TOL
from spectralpath.spectra import SpectralKind
from spectralpath.symmetrize import Symmetrizer, find_symmetrizer

INSTANCE_KINDS = ("tridiagonal", "permuted_path", "hessenberg", "general_nonneg")
# distance_equivalence: the arc density of its instances, and the largest d
# at which it cross-checks BFS distances against walk powers.
_DISTANCE_DENSITY = 0.4
_BRUTE_FORCE_D = 5


def random_instance(kind: str, d: int, seed, density: float = 0.5) -> np.ndarray:
    """Seeded random nonnegative test matrix of order d+1.

    Kinds: 'tridiagonal' (irreducible, off-diagonals in [0.1, 2)),
    'permuted_path' (tridiagonal conjugated by a random permutation),
    'hessenberg' (nonzero subdiagonal, Bernoulli(density) upper part),
    'general_nonneg' (every entry Bernoulli(density) times uniform).
    Entries that are nonzero are bounded away from zero so patterns are
    stable under the default zero threshold.
    """
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    n = d + 1

    if kind in ("tridiagonal", "permuted_path"):
        A = np.zeros((n, n))
        A[np.arange(n), np.arange(n)] = rng.uniform(0.0, 2.0, size=n)
        if n > 1:
            idx = np.arange(n - 1)
            A[idx, idx + 1] = rng.uniform(0.1, 2.0, size=n - 1)
            A[idx + 1, idx] = rng.uniform(0.1, 2.0, size=n - 1)
        if kind == "permuted_path":
            perm = rng.permutation(n)
            A = A[np.ix_(perm, perm)]
        return A

    if kind == "hessenberg":
        A = np.zeros((n, n))
        if n > 1:
            idx = np.arange(n - 1)
            A[idx + 1, idx] = rng.uniform(0.1, 2.0, size=n - 1)
        mask = rng.random((n, n)) < density
        vals = rng.uniform(0.1, 2.0, size=(n, n))
        upper = np.triu(np.ones((n, n), dtype=bool))
        A[mask & upper] = vals[mask & upper]
        return A

    mask = rng.random((n, n)) < density
    vals = rng.uniform(0.1, 2.0, size=(n, n))
    return np.where(mask, vals, 0.0)


def tridiagonal_symmetrizer(A) -> Symmetrizer:
    """Closed-form weights of a nonnegative irreducible tridiagonal matrix.

    kappa_i is the ratio of the superdiagonal product A_01 ... A_{i-1,i}
    to the subdiagonal product A_10 ... A_{i,i-1}, with kappa_0 = 1; these
    weights satisfy K A = A^T K exactly.  The reference `find_symmetrizer`
    is compared against.
    """
    A = np.asarray(A, dtype=float)
    off = np.abs(np.subtract.outer(np.arange(len(A)), np.arange(len(A))))
    if np.min(A) < 0.0 or A[off > 1].any() or not A[off == 1].all():
        raise ValueError("the closed form needs a nonnegative irreducible tridiagonal matrix")
    ratios = np.diagonal(A, 1) / np.diagonal(A, -1)
    return Symmetrizer(kappa=np.concatenate(([1.0], np.cumprod(ratios))))


def _write(text: str, target) -> str:
    """Write `text` to `target`, a path or a file object, unless it is None; return `text`."""
    if hasattr(target, "write"):
        target.write(text)
    elif target is not None:
        Path(target).write_text(text, encoding="utf-8")
    return text


def write_matrix(A, target=None) -> str:
    """The text of `A` that `read_matrix` reads, at repr precision; written to `target` if given."""
    rows = (" ".join(f"{x:.17g}" for x in row) for row in np.asarray(A, dtype=float))
    return _write(f"{len(A)}\n" + "".join(row + "\n" for row in rows), target)


def write_scheme(scheme, target=None) -> str:
    """The text of `scheme` that `read_scheme` reads, relations form when it has relations."""
    form = "RELATIONS" if scheme.relations is not None else "PTENSOR"
    lines = [f"SCHEME X={scheme.size} D={scheme.d} FORM={form}"]
    if scheme.relations is not None:
        for i, m in enumerate(scheme.relations):
            lines.append(f"REL {i}")
            lines += ["".join(str(int(x)) for x in row) for row in m]
    else:
        lines.append("K " + " ".join(str(int(x)) for x in scheme.k))
        for h in range(scheme.d + 1):
            lines.append(f"P {h}")
            lines += [" ".join(str(int(x)) for x in row) for row in scheme.p[h]]
    return _write("\n".join(lines) + "\n", target)


def spectrum_identity_residuals(analysis) -> dict:
    """Residuals of the projector identities plus the cofactor identity.

    Takes a multiplicity-free analysis, whose matrix A and spectrum belong
    together.  Extends the residuals recorded at construction with the relative
    reconstruction error and the worst deviation from the cofactor identity
    adj(theta_i I - A) = gap_i E_i, an independent route that uses no
    eigenvector: X[s, i] Yt[i, t] gap_i against (-1)^(s+t) times the minor of
    theta_i I - A without row t and column s, at every position of row 0 and
    column 0 (so every entry of X and Yt is tested), relative to
    max(1, max|A|)^(n-1).
    """
    if analysis.spectral.kind is not SpectralKind.MULTIPLICITY_FREE:
        raise ValueError("spectrum_identity_residuals needs a multiplicity-free matrix")
    A, spectrum = analysis.A, analysis.spectral.spectrum
    out = dict(spectrum.residuals)
    scale = float(np.max(np.abs(A)))
    out["reconstruction_rel"] = out["reconstruction"] / max(scale, 1e-300)
    n = len(spectrum.theta)
    others = np.array([np.delete(np.arange(n), k) for k in range(n)])  # (n, n - 1)
    s = np.r_[np.zeros(n, dtype=int), np.arange(1, n)]  # (0, 0..n-1), then (1..n-1, 0)
    t = np.r_[np.arange(n), np.zeros(n - 1, dtype=int)]
    shifted = spectrum.theta[:, None, None] * np.eye(n) - A  # theta_i I - A
    minors = np.linalg.det(shifted[:, others[t][:, :, None], others[s][:, None, :]])
    adj = np.where((s + t) % 2, -1.0, 1.0) * minors
    projected = spectrum.X[s, :].T * spectrum.Yt[:, t] * spectrum.gaps[:, None]
    out["cofactor_rel"] = float(np.max(np.abs(projected - adj))) / max(1.0, scale) ** (n - 1)
    return out


def _record_spectrum(worst: dict, analysis):
    """Raise each entry of `worst` to the spectral residuals of a multiplicity-free `analysis`."""
    if analysis.spectral.kind is SpectralKind.MULTIPLICITY_FREE:
        for key, value in spectrum_identity_residuals(analysis).items():
            if value > worst.get(key, 0.0):
                worst[key] = float(value)


def path_equivalence(trials=25, d_max=6, seed=0, tol=DEFAULT_TOL):
    """Permuted paths: the two sides of the path form agree at every position.

    Both sides hold at exactly one unordered pair, the path's endpoints.
    Returns the positions checked and the worst spectral residuals.
    """
    cases, worst = 0, {}
    for d in range(1, d_max + 1):
        for trial in range(trials):
            analysis = analyze_matrix(random_instance("permuted_path", d, seed=[seed, d, trial]), tol)
            _record_spectrum(worst, analysis)
            order = analysis.path_order
            assert order is not None, f"d={d} trial={trial}: permuted path not recognized as path"
            hits = set()
            for s in range(d + 1):
                for t in range(d + 1):
                    rep = check_characterization(analysis, "path", s, t)
                    assert rep.equivalent, (
                        f"d={d} trial={trial} (s,t)=({s},{t}): "
                        f"pattern={rep.condition_i} spectral={rep.condition_ii}"
                    )
                    if rep.condition_i and rep.condition_ii:
                        hits.add(frozenset((s, t)))
            cases += (d + 1) ** 2
            assert hits == {frozenset((order[0], order[-1]))}, f"d={d} trial={trial}: endpoint pairs {hits}"
    return cases, worst


def _brute_distances(A: np.ndarray, zero_tol: float) -> np.ndarray:
    """All-pairs shortest directed path lengths by boolean walk powers, -1 when unreachable."""
    n = A.shape[0]
    mask = (np.abs(A) > zero_tol).astype(np.int64)
    np.fill_diagonal(mask, 0)
    dist = np.full((n, n), -1, dtype=int)
    np.fill_diagonal(dist, 0)
    walk = np.eye(n, dtype=np.int64)
    for step in range(1, n):
        walk = (walk @ mask > 0).astype(np.int64)
        dist[(walk > 0) & (dist < 0)] = step
    return dist


def distance_equivalence(trials=25, d_max=6, seed=0, tol=DEFAULT_TOL):
    """General nonnegative instances: the two sides of the distance form agree at every position.

    Instances cycle through d = 1..d_max.  For small d the breadth-first
    distances are cross-checked against boolean walk powers.  The share of
    diagonalizable instances is returned among the worst values, as
    `diagonalizable_fraction`, so thin coverage is visible.
    """
    cases, worst, diagonalizable = 0, {}, 0
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("general_nonneg", d, seed=[seed, idx], density=_DISTANCE_DENSITY)
        analysis = analyze_matrix(A, tol)
        _record_spectrum(worst, analysis)
        kind = analysis.spectral.kind
        diagonalizable += kind in (SpectralKind.MULTIPLICITY_FREE, SpectralKind.DIAGONALIZABLE_NOT_MF)
        n = d + 1
        if d <= _BRUTE_FORCE_D:
            brute = _brute_distances(A, tol.zero_tol).tolist()
            bfs = [[analysis.distance(s, t) for t in range(n)] for s in range(n)]
            assert bfs == [[b if b >= 0 else None for b in row] for row in brute], (
                f"idx={idx}: BFS distances disagree with walk powers"
            )
        for s in range(n):
            for t in range(n):
                rep = check_characterization(analysis, "distance", s, t)
                assert rep.equivalent, (
                    f"idx={idx} d={d} (s,t)=({s},{t}): distance-side={rep.condition_i} "
                    f"spectral={rep.condition_ii} kind={kind.value}"
                )
        cases += n * n
    worst["diagonalizable_fraction"] = diagonalizable / trials
    return cases, worst


def hessenberg_powers(trials=25, d_max=8, seed=0, tol=DEFAULT_TOL) -> int:
    """Hessenberg instances: power patterns and independence of A^0..A^d.

    (A^r) must be nonzero on the r-th subdiagonal and zero below it, and
    the d+1 vectorized powers must have full rank.  Returns the powers checked.
    """
    cases = 0
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("hessenberg", d, seed=[seed, idx])
        n = d + 1
        below = np.subtract.outer(np.arange(n), np.arange(n))  # i - j
        powers = [np.eye(n)]
        for _ in range(d):
            powers.append(powers[-1] @ A)
        for r, M in enumerate(powers):
            assert (np.abs(M[below == r]) > 1e-12).all(), f"idx={idx} r={r}: zero on subdiagonal {r}"
            assert (np.abs(M[below > r]) < 1e-12).all(), f"idx={idx} r={r}: nonzero below subdiagonal {r}"
        cases += n
        stack = np.vstack([M.reshape(1, -1) for M in powers])
        stack = stack / np.max(np.abs(stack), axis=1, keepdims=True)
        rank = np.linalg.matrix_rank(stack, tol=tol.residual_tol)
        assert rank == n, f"idx={idx}: power stack rank {rank} != {n}"
    return cases


def symmetrizer(trials=25, d_max=10, seed=0, tol=DEFAULT_TOL) -> float:
    """Tridiagonal symmetrizer: exact balance, route agreement, permutation invariance.

    Returns the worst balance residual |K A - A^T K| relative to max|A|.
    """
    worst = 0.0
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("tridiagonal", d, seed=[seed, idx])
        scale = float(np.max(np.abs(A)))
        closed = tridiagonal_symmetrizer(A)
        K = np.diag(closed.kappa)
        balance = float(np.max(np.abs(K @ A - A.T @ K)))
        worst = max(worst, balance / scale)
        assert balance <= 1e-9 * scale, f"idx={idx}: K A - A^T K residual {balance:.3e}"

        general = find_symmetrizer(A, tol)
        assert isinstance(general, Symmetrizer), f"idx={idx}: general symmetrizer failed with {general}"
        rel = float(np.max(np.abs(general.kappa / general.kappa[0] - closed.kappa)))
        rel /= max(1.0, float(np.max(closed.kappa)))
        assert rel <= tol.residual_tol, f"idx={idx}: closed-form and search weights disagree ({rel:.3e})"

        rng = np.random.default_rng([seed, idx, 7])
        for rep in range(10):
            perm = rng.permutation(d + 1)
            found = find_symmetrizer(A[np.ix_(perm, perm)], tol)
            assert isinstance(found, Symmetrizer), f"idx={idx} perm={rep}: permuted matrix not symmetrizable"
            ratio = found.kappa / closed.kappa[perm]
            dev = float(np.max(ratio) / np.min(ratio) - 1.0)
            assert dev <= tol.residual_tol, f"idx={idx} perm={rep}: weights not permutation-consistent ({dev:.3e})"
    return worst


def degenerate(seed=0, tol=DEFAULT_TOL):
    """Smallest sizes: one vertex, one edge, and the one-class scheme on two points."""
    rng = np.random.default_rng([seed, 99])
    rep = check_characterization(analyze_matrix(np.array([[rng.uniform(0.0, 2.0)]]), tol), "path", 0, 0)
    assert rep.condition_i and rep.condition_ii, "d=0: single vertex should satisfy both sides at (0, 0)"
    assert abs(rep.profile.common_value - 1.0) <= tol.residual_tol, rep.profile

    analysis = analyze_matrix(random_instance("tridiagonal", 1, seed=[seed, 1]), tol)
    for s in range(2):
        for t in range(2):
            for form in ("path", "distance"):
                rep = check_characterization(analysis, form, s, t)
                assert rep.equivalent and rep.condition_i == (s != t), (form, s, t)

    ed = schemes.eigendata(schemes.builtin_scheme("complete", 2), tol, seed=seed)
    assert float(np.max(np.abs(ed.P - [[1.0, 1.0], [1.0, -1.0]]))) <= tol.residual_tol, ed.P
    for check in (schemes.check_p_polynomial_characterization, schemes.check_q_polynomial_characterization):
        rep = check(ed, 1, 1)
        assert rep.side_i and rep.side_ii, check.__name__
