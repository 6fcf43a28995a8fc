"""Randomized self-check suites over the instance generators.

Each suite sweeps seeded random instances through a checker and collects
failures plus the worst residuals seen.  The same functions back the
command-line `selftest` and the acceptance tests, which pin specific
trial counts and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equivalence import (
    MatrixAnalysis,
    analyze_matrix,
    check_distance_characterization,
    check_path_characterization,
    random_instance,
)
from .linalg import DEFAULT_TOL, Tolerance
from .spectra import SpectralKind
from .symmetrize import Symmetrizer, find_symmetrizer, tridiagonal_symmetrizer

__all__ = [
    "SuiteResult",
    "spectrum_identity_residuals",
    "suite_path_equivalence",
    "suite_distance_equivalence",
    "suite_hessenberg_powers",
    "suite_symmetrizer",
    "suite_degenerate",
    "run_all_suites",
]

MAX_RECORDED_FAILURES = 20
# suite_distance_equivalence: the arc density of its instances, and the
# largest d at which it cross-checks BFS distances against walk powers.
_DISTANCE_DENSITY = 0.4
_BRUTE_FORCE_D = 5


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(message)
        elif len(self.failures) == MAX_RECORDED_FAILURES:
            self.failures.append("... further failures suppressed")

    def track(self, key: str, value: float):
        if value > self.worst.get(key, 0.0):
            self.worst[key] = float(value)


def spectrum_identity_residuals(analysis: MatrixAnalysis) -> dict:
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


def _track_spectrum(result: SuiteResult, analysis):
    if analysis.spectral.kind is SpectralKind.MULTIPLICITY_FREE:
        for key, value in spectrum_identity_residuals(analysis).items():
            result.track(key, value)


def suite_path_equivalence(
    trials: int = 25, d_max: int = 6, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Permuted path instances: pattern side iff spectral side at every position.

    Also asserts exactly one unordered endpoint pair satisfies both sides.
    """
    result = SuiteResult("path_equivalence")
    for d in range(1, d_max + 1):
        for trial in range(trials):
            A = random_instance("permuted_path", d, seed=[seed, d, trial])
            analysis = analyze_matrix(A, tol)
            _track_spectrum(result, analysis)
            if analysis.path_order is None:
                result.fail(f"d={d} trial={trial}: permuted path not recognized as path")
                continue
            endpoints = {analysis.path_order[0], analysis.path_order[-1]}
            hits = set()
            n = d + 1
            for s in range(n):
                for t in range(n):
                    rep = check_path_characterization(analysis, s, t)
                    result.cases += 1
                    if not rep.equivalent:
                        result.fail(
                            f"d={d} trial={trial} (s,t)=({s},{t}): "
                            f"pattern={rep.condition_i} spectral={rep.condition_ii}"
                        )
                    if rep.both_true:
                        hits.add(frozenset((s, t)))
            if hits != {frozenset(endpoints)}:
                result.fail(
                    f"d={d} trial={trial}: endpoint pairs {sorted(map(sorted, hits))} "
                    f"!= {{{sorted(endpoints)}}}"
                )
    return result


def _brute_distances(A: np.ndarray, zero_tol: float) -> np.ndarray:
    """All-pairs shortest directed path lengths by boolean walk powers."""
    n = A.shape[0]
    mask = (np.abs(A) > zero_tol).astype(np.int64)
    np.fill_diagonal(mask, 0)
    dist = np.full((n, n), -1, dtype=int)
    np.fill_diagonal(dist, 0)
    walk = np.eye(n, dtype=np.int64)
    for step in range(1, n):
        walk = (walk @ mask > 0).astype(np.int64)
        newly = (walk > 0) & (dist < 0)
        dist[newly] = step
    return dist


def suite_distance_equivalence(
    trials: int = 25, d_max: int = 6, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """General nonnegative instances: distance-form equivalence at every position.

    Instances cycle through d = 1..d_max.  For small d the breadth-first
    distances are cross-checked against boolean walk powers.  The count of
    diagonalizable instances is tracked so thin coverage is visible.
    """
    result = SuiteResult("distance_equivalence")
    diagonalizable = 0
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("general_nonneg", d, seed=[seed, idx], density=_DISTANCE_DENSITY)
        analysis = analyze_matrix(A, tol)
        _track_spectrum(result, analysis)
        if analysis.spectral.kind in (
            SpectralKind.MULTIPLICITY_FREE,
            SpectralKind.DIAGONALIZABLE_NOT_MF,
        ):
            diagonalizable += 1
        n = d + 1
        if d <= _BRUTE_FORCE_D:
            brute = _brute_distances(A, tol.zero_tol).tolist()
            if any(
                analysis.distance(s, t) != (brute[s][t] if brute[s][t] >= 0 else None)
                for s in range(n)
                for t in range(n)
            ):
                result.fail(f"idx={idx}: BFS distances disagree with walk powers")
        for s in range(n):
            for t in range(n):
                rep = check_distance_characterization(analysis, s, t)
                result.cases += 1
                if not rep.equivalent:
                    result.fail(
                        f"idx={idx} d={d} (s,t)=({s},{t}): "
                        f"distance-side={rep.condition_i} spectral={rep.condition_ii} "
                        f"kind={rep.spectral_kind.value}"
                    )
    result.worst["diagonalizable_fraction"] = diagonalizable / max(trials, 1)
    return result


def suite_hessenberg_powers(
    trials: int = 25, d_max: int = 8, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Hessenberg instances: power patterns and independence of A^0..A^d.

    (A^r) must be strictly positive on the r-th subdiagonal and exactly
    zero below it, and the d+1 vectorized powers must have full rank.
    """
    result = SuiteResult("hessenberg_powers")
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("hessenberg", d, seed=[seed, idx])
        n = d + 1
        powers = [np.eye(n)]
        for _ in range(d):
            powers.append(powers[-1] @ A)
        ok = True
        for r, M in enumerate(powers):
            result.cases += 1
            for i in range(n):
                for j in range(n):
                    if i - j == r and not abs(M[i, j]) > 1e-12:
                        result.fail(f"idx={idx} r={r}: ({i},{j}) should be nonzero")
                        ok = False
                    if i - j > r and not abs(M[i, j]) < 1e-12:
                        result.fail(f"idx={idx} r={r}: ({i},{j}) should be zero")
                        ok = False
        if not ok:
            continue
        stack = np.vstack([M.reshape(1, -1) for M in powers])
        stack = stack / np.max(np.abs(stack), axis=1, keepdims=True)
        rank = np.linalg.matrix_rank(stack, tol=tol.residual_tol)
        if rank != d + 1:
            result.fail(f"idx={idx}: power stack rank {rank} != {d + 1}")
    return result


def suite_symmetrizer(
    trials: int = 25, d_max: int = 10, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Tridiagonal symmetrizer: exact balance, route agreement, permutation invariance."""
    result = SuiteResult("symmetrizer")
    for idx in range(trials):
        d = (idx % d_max) + 1
        A = random_instance("tridiagonal", d, seed=[seed, idx])
        n = d + 1
        scale = float(np.max(np.abs(A)))
        closed = tridiagonal_symmetrizer(A, tol)
        K = np.diag(closed.kappa)
        balance = float(np.max(np.abs(K @ A - A.T @ K)))
        result.track("balance_over_scale", balance / scale)
        result.cases += 1
        if balance > 1e-9 * scale:
            result.fail(f"idx={idx}: K A - A^T K residual {balance:.3e} > 1e-9 * {scale:.3e}")

        general = find_symmetrizer(A, tol)
        if not isinstance(general, Symmetrizer):
            result.fail(f"idx={idx}: general symmetrizer failed with {general}")
            continue
        rel = float(np.max(np.abs(general.kappa / general.kappa[0] - closed.kappa)))
        rel /= max(1.0, float(np.max(closed.kappa)))
        result.track("route_agreement_rel", rel)
        if rel > tol.residual_tol:
            result.fail(f"idx={idx}: closed-form and search weights disagree ({rel:.3e})")

        rng = np.random.default_rng([seed, idx, 7])
        for rep in range(10):
            perm = rng.permutation(n)
            B = A[np.ix_(perm, perm)]
            found = find_symmetrizer(B, tol)
            result.cases += 1
            if not isinstance(found, Symmetrizer):
                result.fail(f"idx={idx} perm={rep}: permuted matrix not symmetrizable")
                continue
            ratio = found.kappa / closed.kappa[perm]
            dev = float(np.max(ratio) / np.min(ratio) - 1.0)
            result.track("permutation_consistency", dev)
            if dev > tol.residual_tol:
                result.fail(f"idx={idx} perm={rep}: weights not permutation-consistent ({dev:.3e})")
    return result


def suite_degenerate(seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> SuiteResult:
    """Smallest sizes: single vertex, single edge, and the 1-class scheme on 2 points."""
    from . import schemes

    result = SuiteResult("degenerate")
    rng = np.random.default_rng([seed, 99])

    A0 = np.array([[rng.uniform(0.0, 2.0)]])
    rep = check_path_characterization(analyze_matrix(A0, tol), 0, 0)
    result.cases += 1
    if not (rep.condition_i and rep.condition_ii):
        result.fail("d=0: single vertex should satisfy both sides at (0, 0)")
    prof = rep.profile
    if prof is None or prof.common_value is None or abs(prof.common_value - 1.0) > tol.residual_tol:
        result.fail(f"d=0: profile should be the constant 1, got {prof}")

    A1 = random_instance("tridiagonal", 1, seed=[seed, 1])
    analysis = analyze_matrix(A1, tol)
    for s in range(2):
        for t in range(2):
            both = check_path_characterization(analysis, s, t)
            dist_rep = check_distance_characterization(analysis, s, t)
            result.cases += 2
            expected = s != t
            if both.both_true != expected or not both.equivalent:
                result.fail(f"d=1 path check at ({s},{t}): expected both={expected}")
            if dist_rep.both_true != expected or not dist_rep.equivalent:
                result.fail(f"d=1 distance check at ({s},{t}): expected both={expected}")

    scheme = schemes.builtin_scheme("complete", 2)
    ed = schemes.eigendata(scheme, tol, seed=seed)
    result.cases += 1
    if float(np.max(np.abs(ed.P - np.array([[1.0, 1.0], [1.0, -1.0]])))) > tol.residual_tol:
        result.fail(f"complete(2): unexpected P = {ed.P.tolist()}")
    knp = schemes.check_p_polynomial_characterization(ed, 1, 1)
    knq = schemes.check_q_polynomial_characterization(ed, 1, 1)
    if not (knp.both_true and knq.both_true):
        result.fail("complete(2): endpoint characterizations should hold at (1, 1)")
    return result


def _suite_scheme(seed: int, tol: Tolerance) -> SuiteResult:
    """Hypercube battery at sizes 3 and 4: triple counting, self-duality, known orderings."""
    from . import schemes

    result = SuiteResult("scheme")
    for n in (3, 4):
        scheme = schemes.builtin_scheme("hypercube", n)
        ed = schemes.eigendata(scheme, tol, seed=seed)
        result.cases += 1
        dist = np.bitwise_count(np.arange(2**n)[:, None] ^ np.arange(2**n))
        counted = schemes.scheme_from_relations([(dist == r).astype(np.int8) for r in range(n + 1)])
        if not np.array_equal(counted.p, scheme.p):
            result.fail(f"hypercube({n}): closed-form p differs from triple counting")
        dev_pq = float(np.max(np.abs(ed.P - ed.Q)))
        result.track("hypercube_P_minus_Q", dev_pq)
        if dev_pq > tol.residual_tol * scheme.size:
            result.fail(f"hypercube({n}): P != Q ({dev_pq:.3e})")
        dev_qp = float(np.max(np.abs(ed.q - scheme.p)))
        result.track("hypercube_q_minus_p", dev_qp)
        if dev_qp > tol.residual_tol * scheme.size:
            result.fail(f"hypercube({n}): Krein tensor != intersection tensor ({dev_qp:.3e})")
        p_structs = schemes.detect_p_polynomial(scheme, tol)
        q_structs = schemes.detect_q_polynomial(ed)
        expect = {(1, tuple(range(n + 1)), n)}
        if n % 2 == 0:
            # even cubes carry a second structure generated by the
            # near-antipodal relation
            second = tuple(j if j % 2 == 0 else n - j for j in range(n + 1))
            expect.add((n - 1, second, n))
        if {tuple(s) for s in p_structs} != expect:
            result.fail(f"hypercube({n}): P-polynomial structures {p_structs}")
        if {tuple(s) for s in q_structs} != expect:
            result.fail(f"hypercube({n}): Q-polynomial structures {q_structs}")
        both = schemes.check_p_polynomial_characterization(ed, 1, n)
        if not both.both_true:
            result.fail(f"hypercube({n}): endpoint check (1, {n}) should hold")
    return result


def run_all_suites(trials: int = 25, d_max: int = 6, seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """Run every suite; returns the list of SuiteResult.

    Raises ValueError when `trials` or `d_max` is below 1, at which some
    suite would run no case or fail on a modulus of zero.
    """
    if trials < 1 or d_max < 1:
        raise ValueError(f"trials and d_max must be at least 1, got {trials} and {d_max}")
    return [
        suite_path_equivalence(trials=trials, d_max=d_max, seed=seed, tol=tol),
        suite_distance_equivalence(trials=trials, d_max=min(d_max, 7), seed=seed, tol=tol),
        suite_hessenberg_powers(trials=trials, d_max=min(d_max, 8), seed=seed, tol=tol),
        suite_symmetrizer(trials=trials, d_max=min(d_max, 10), seed=seed, tol=tol),
        suite_degenerate(seed=seed, tol=tol),
        _suite_scheme(seed=seed, tol=tol),
    ]
