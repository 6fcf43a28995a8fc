"""The exact oracle: every matrix verdict at small order, decided in rational arithmetic.

Every stored double is a dyadic rational, so `Fraction(x)` reads it exactly,
and 2^e A is an integer matrix B for some e.  Every claim `analyze` and
`check` make about A is decided on B in Python integers and fractions:

* Faddeev-LeVerrier gives chi(x) = det(xI - B) and adj(xI - B) =
  sum_k M_k x^(n-1-k); scaling by 2^e changes no kind, multiplicity or
  zero entry of any M_k.
* sqf = chi / gcd(chi, chi').  The spectrum is complex when a Sturm count of
  the distinct real roots of chi falls below deg sqf, multiplicity-free when
  deg sqf = n, and otherwise diagonalizable exactly when sqf(B) = 0.  The
  real roots of multiplicity at least k are the distinct real roots of the
  (k-1)-th repeated gcd of chi with its derivative.
* Under a multiplicity-free spectrum c_i = adj(theta_i I - A)_st, a
  polynomial of degree at most n - 1 at n distinct points, so the profile
  at (s, t) is a nonzero constant exactly when M_k[s][t] = 0 for every
  k < n - 1 and M_{n-1}[s][t] != 0.
* Distances come from a breadth-first search of the pattern, and a
  symmetrizer from propagating fraction weights along it.

The rule: when `analyze` exits 0 it reports the exact kind, the exact
multiplicities of the real eigenvalues and the exact constant positions;
`check` in both forms exits with the exact code, or 3.  The instances come
from a fixed list of seeds.  Those that get a wrong answer today are strict
xfails naming the direction of the roadmap that mends them; no instance is
redrawn.  The module imports nothing from the package but the command line.
"""

import contextlib
import io
import json
import random
from collections import deque
from fractions import Fraction
from math import lcm

import pytest

from spectralpath.cli import main

EXIT_NUMERICAL = 3
MF, DIAGONALIZABLE, DEFECTIVE, COMPLEX = (
    "multiplicity_free", "diagonalizable_not_mf", "not_diagonalizable", "complex_spectrum")

# ---- polynomials: coefficient lists of Fractions, highest degree first, no leading zero


def _trim(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _divmod(a, b):
    """Quotient and remainder of polynomial division by a nonzero b."""
    a, q = list(a), []
    while len(a) >= len(b):
        c = Fraction(a[0]) / b[0]
        q.append(c)
        a = [x - c * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    return q, _trim(a)


def _derivative(p):
    d = len(p) - 1
    return _trim([c * (d - i) for i, c in enumerate(p[:-1])])


def _gcd(a, b):
    """Monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [Fraction(c) / a[0] for c in a]


def _real_root_count(p):
    """Distinct real roots of p (deg >= 0), by Sturm's theorem: sign changes at -inf minus those at +inf."""
    chain = [p, _derivative(p)]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain = [q for q in chain if q]

    def changes(at_minus_inf):
        signs = [(q[0] > 0) ^ (at_minus_inf and (len(q) - 1) % 2 == 1) for q in chain]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(True) - changes(False)


# ---- matrices: lists of rows


def _integer_matrix(A):
    """2^e A for the least e that makes every entry an integer."""
    exact = [[Fraction(x) for x in row] for row in A]
    scale = lcm(*(x.denominator for row in exact for x in row))
    return [[int(x * scale) for x in row] for row in exact]


def _matmul(X, Y):
    cols = list(zip(*Y))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in X]


def _faddeev_leverrier(B):
    """chi(x) = det(xI - B), highest degree first, and M_0 .. M_{n-1} with adj(xI - B) = sum_k M_k x^(n-1-k)."""
    n = len(B)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    chi, adj = [1], [M]
    for k in range(1, n + 1):
        BM = _matmul(B, M)
        c, rest = divmod(-sum(BM[i][i] for i in range(n)), k)
        assert rest == 0  # an integer matrix has an integer characteristic polynomial
        chi.append(c)
        M = [[BM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        if k < n:
            adj.append(M)
    assert all(x == 0 for row in M for x in row)  # Cayley-Hamilton
    return chi, adj


def _annihilates(p, B):
    """Whether the polynomial p vanishes at the matrix B (Horner, in integers)."""
    scale = lcm(*(Fraction(c).denominator for c in p))
    n = len(B)
    R = [[0] * n for _ in range(n)]
    for c in p:
        R = _matmul(R, B)
        for i in range(n):
            R[i][i] += int(c * scale)
    return all(x == 0 for row in R for x in row)


def _distances(pattern, s):
    """Directed distances from s in the pattern (a list of out-neighbour lists); None when unreachable."""
    dist = [None] * len(pattern)
    dist[s] = 0
    queue = deque([s])
    while queue:
        i = queue.popleft()
        for j in pattern[i]:
            if dist[j] is None:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def _symmetrizable(A, pattern):
    """Whether positive w with w_i A_ij = w_j A_ji exist: propagate fraction weights, then test every arc."""
    n = len(A)
    if any(i not in pattern[j] for i in range(n) for j in pattern[i]):
        return False
    w = [None] * n
    for root in range(n):
        if w[root] is None:
            w[root] = Fraction(1)
            queue = deque([root])
            while queue:
                i = queue.popleft()
                for j in pattern[i]:
                    if w[j] is None:
                        w[j] = w[i] * Fraction(A[i][j]) / Fraction(A[j][i])
                        queue.append(j)
    return all(w[i] * Fraction(A[i][j]) == w[j] * Fraction(A[j][i]) for i in range(n) for j in pattern[i])


def _is_path(pattern):
    """Whether the pattern is symmetric and its undirected graph one path through every vertex."""
    n = len(pattern)
    symmetric = all(i in pattern[j] for i in range(n) for j in pattern[i])
    degrees = sorted(len(p) for p in pattern)
    connected = None not in _distances(pattern, 0)
    return symmetric and connected and degrees == [1, 1] + [2] * (n - 2)


def exact_verdicts(A):
    """The kind, the sorted multiplicities of the real eigenvalues, the constant positions and the exact check
    codes {(form, s, t): 0 or 1} at every off-diagonal position of a nonnegative matrix of finite doubles."""
    n = len(A)
    B = _integer_matrix(A)
    chi, adj = _faddeev_leverrier(B)
    sqf = _divmod(chi, _gcd(chi, _derivative(chi)))[0]
    at_least, g = [], chi  # at_least[k - 1]: real roots of multiplicity >= k, the distinct real roots of g
    while len(g) > 1:
        at_least.append(_real_root_count(g))
        g = _gcd(g, _derivative(g))
    at_least.append(0)
    multiplicities = [k for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k])]
    if _real_root_count(chi) < len(sqf) - 1:
        kind = COMPLEX
    elif len(sqf) - 1 == n:
        kind = MF
    else:
        kind = DIAGONALIZABLE if _annihilates(sqf, B) else DEFECTIVE
    positions = set()
    if kind == MF:
        positions = {(s, t) for s in range(n) for t in range(n)
                     if all(adj[k][s][t] == 0 for k in range(n - 1)) and adj[n - 1][s][t] != 0}
    pattern = [[j for j in range(n) if j != i and A[i][j] != 0] for i in range(n)]
    path, symmetrizable = _is_path(pattern), _symmetrizable(A, pattern)
    codes = {}
    for s in range(n):
        far = _distances(pattern, s)
        for t in range(n):
            if t == s:
                continue
            constant = (s, t) in positions
            sides = {
                "path": (path and far[t] == n - 1, symmetrizable and constant),
                "distance": (kind in (MF, DIAGONALIZABLE) and far[t] == n - 1, constant),
            }
            for form, (side_i, side_ii) in sides.items():
                assert side_i == side_ii, (form, s, t)  # the paper's equivalence, exactly
                codes[form, s, t] = 0 if side_i else 1
    return kind, sorted(multiplicities), positions, codes


# ---- the battery

WEIGHTS = {
    "w123": (1, 2, 3),
    "w1000": (1, 7, 50, 333, 1000),
    "dyadic": tuple(2.0**e for e in range(-10, 21)),
}
FAMILIES = ("dense", "sparse", "dag", "bidiagonal", "symmetric_pattern", "permuted_path", "hessenberg")
PER_FAMILY = 16  # instances per family and weight set, seeds 0 .. PER_FAMILY - 1


def draw(family, weights, seed):
    """The seeded instance of a family at order 2 .. 7, entries drawn from `weights` or 0."""
    rng = random.Random(f"{family}-{weights}-{seed}")
    ws = WEIGHTS[weights]
    n = rng.randint(2, 7)

    def w(p=1.0):
        return float(rng.choice(ws)) if rng.random() < p else 0.0

    A = [[0.0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = w(0.4)
    if family == "dense":
        A = [[w() if i != j else A[i][i] for j in range(n)] for i in range(n)]
    elif family == "sparse":
        A = [[w(0.35) if i != j else A[i][i] for j in range(n)] for i in range(n)]
    elif family == "dag":
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = w(0.5)
    elif family == "bidiagonal":
        for i in range(n - 1):
            A[i][i + 1] = w()
    elif family == "symmetric_pattern":
        mirror = rng.random() < 0.5  # symmetric values, which symmetrize with unit weights
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    A[i][j] = w()
                    A[j][i] = A[i][j] if mirror else w()
    elif family == "permuted_path":
        for i in range(n - 1):
            A[i][i + 1], A[i + 1][i] = w(), w()
    elif family == "hessenberg":
        for i in range(n):
            for j in range(max(0, i - 1), n):
                A[i][j] = w() if j == i - 1 else w(0.5) if j > i else A[i][i]
    if family in ("dag", "symmetric_pattern", "permuted_path"):
        perm = list(range(n))
        rng.shuffle(perm)
        A = [[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return A


def _bidiagonal(n, c):
    return [[float(j - i == 1) * c + (float(i) if i == j else 0.0) for j in range(n)] for i in range(n)]


FIXED = {
    # triangular, eigenvalues exactly 0 and 2^-10; distance (1, 0) is n - 1
    "2x2": [[0.0, 0.0], [2.0**20, 2.0**-10]],
    # eigenvalues exactly 0 .. n - 1; (0, n - 1) at distance n - 1
    **{f"bidiagonal-{n}-2^{e}": _bidiagonal(n, 2.0**e) for n in (3, 4, 6, 8) for e in (4, 8, 12, 16, 20)},
    # three distinct eigenvalues about 4.1e-9, -0.9e-9 and -3.2e-9
    "1e-9*K3": [[1e-9 * x for x in row] for row in ((0, 1, 2), (1, 0, 3), (2, 3, 0))],
    # 1 + 4.3e-8, (1 + 1.9e-8) x 4 and 1: both gaps, 2.4e-8 and 1.9e-8, are far above twice the Weyl unit
    "skewed-diagonal": [[(1 + 4.3e-8, 1 + 1.9e-8, 1 + 1.9e-8, 1 + 1.9e-8, 1 + 1.9e-8, 1.0)[i] if i == j else 0.0
                         for j in range(6)] for i in range(6)],
    # 2^18, 2^-8 and 0: the gap 2^-8 is below eig_tol * max|A| = 2.6e-3, and far above twice the Weyl unit
    "dyadic-diagonal": [[(2.0**18, 2.0**-8, 0.0)[i] if i == j else 0.0 for j in range(3)] for i in range(3)],
    # 0 x 2, -2^-30 / 3 and 3 + 2^-30 / 3; symmetrized only within residual_tol (the 0-1-2 cycle is off by
    # 2^-30), so H's gaps near 0 are not A's
    "near-symmetric-block": [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 1.0 + 2.0**-30, 1.0, 0.0],
                             [0.0, 0.0, 0.0, 0.0]],
}

_E = "direction E of ROADMAP"
_MF_MERGED = "analyze exits 0 with a repeated eigenvalue where the spectrum is multiplicity-free"
_FAR_PAIR = _MF_MERGED + ", and check --form distance exits 1 at the pair at distance n - 1"
_MERGED = "analyze exits 0 with the exact kind but distinct eigenvalues merged"
# Wrong answers today, by case id.  Each is a threshold merge reported as equality, which E mends.
KNOWN_WRONG = {
    "sparse-dyadic-5": _MF_MERGED,
    "dag-dyadic-1": _MERGED,
    "dag-dyadic-3": _MERGED,
    "dag-dyadic-4": _MF_MERGED,
    "dag-dyadic-7": "analyze exits 0 with diagonalizable_not_mf where a Jordan block exists",
    "bidiagonal-dyadic-2": _FAR_PAIR,
    "bidiagonal-dyadic-7": _MERGED,
    "bidiagonal-dyadic-12": _MERGED,
    "2x2": _FAR_PAIR + ": the gap 2^-10 is below the floor",
    **{f"bidiagonal-{n}-2^{e}": _FAR_PAIR + ": the eigenvector condition numbers grow like c^(n-1)"
       for n, e in ((3, 16), (3, 20), (4, 12), (4, 16), (4, 20), (6, 12), (6, 16), (6, 20), (8, 8), (8, 12),
                    (8, 16), (8, 20))},
}


def _cases():
    ids = [(f"{family}-{weights}-{seed}", (family, weights, seed))
           for weights in WEIGHTS for family in FAMILIES for seed in range(PER_FAMILY)]
    ids += [(name, name) for name in FIXED]
    return [pytest.param(key, id=name, marks=[pytest.mark.xfail(strict=True, reason=f"{KNOWN_WRONG[name]}; {_E}")]
                         if name in KNOWN_WRONG else []) for name, key in ids]


def _matrix(key):
    return FIXED[key] if isinstance(key, str) else draw(*key)


def _run(argv):
    """Exit code and stdout of one command line, in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def wrong_answers(A, folder):
    """What `analyze` and `check` get wrong on A, against the exact verdicts; [] when nothing."""
    kind, multiplicities, positions, codes = exact_verdicts(A)
    path = folder / "matrix.txt"
    path.write_text(f"{len(A)}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in A), encoding="utf-8")
    wrong = []
    code, out = _run(["analyze", str(path), "--json"])
    if code == 0:
        result = json.loads(out)["result"]
        got = (result["spectral_kind"], sorted(m for _, m in result["eigenvalues"]),
               {(p["s"], p["t"]) for p in result["constant_profile_positions"]})
        if got != (kind, multiplicities, positions):
            wrong.append(f"analyze: {got} where exact {(kind, multiplicities, positions)}")
    elif code != EXIT_NUMERICAL:
        wrong.append(f"analyze exits {code}")
    # every position at distance n - 1 and two more, fixed by the instance
    rng = random.Random(repr(A))
    chosen = sorted({(s, t) for form, s, t in codes if codes[form, s, t] == 0}
                    | set(rng.sample(sorted({(s, t) for _, s, t in codes}), 2)))
    for form in ("path", "distance"):
        for s, t in chosen:
            code, _ = _run(["check", str(path), "--form", form, "--s", str(s), "--t", str(t)])
            if code not in (codes[form, s, t], EXIT_NUMERICAL):
                wrong.append(f"check --form {form} --s {s} --t {t} exits {code} where exact {codes[form, s, t]}")
    return wrong


@pytest.mark.parametrize("key", _cases())
def test_verdicts_match_the_exact_oracle(tmp_path, key):
    assert wrong_answers(_matrix(key), tmp_path) == []


@pytest.mark.parametrize("A, kind, multiplicities, positions", [
    ([[0.0, 1.0], [1.0, 0.0]], MF, [1, 1], {(0, 1), (1, 0)}),
    ([[0.0, 1.0], [0.0, 0.0]], DEFECTIVE, [2], set()),
    ([[1.0, 0.0], [0.0, 1.0]], DIAGONALIZABLE, [2], set()),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], COMPLEX, [1], set()),
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], DEFECTIVE, [1, 2], set()),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], MF, [1, 1, 1], {(0, 2), (2, 0)}),
])
def test_the_oracle_on_matrices_known_by_hand(A, kind, multiplicities, positions):
    assert exact_verdicts(A)[:3] == (kind, multiplicities, positions)
