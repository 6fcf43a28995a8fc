"""Acceptance gate: every advertised guarantee of the package, one test each.

Each test prints a single PASS line on success (failures surface through
pytest's own FAILED lines), so a full run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from spectralpath.cli import main as cli_main
from spectralpath.equivalence import analyze_matrix
from spectralpath.schemes import (
    builtin_scheme,
    check_scheme_characterization,
    detect_p_polynomial,
    detect_q_polynomial,
    eigendata,
)
from suites import (
    degenerate,
    distance_equivalence,
    hessenberg_powers,
    path_equivalence,
    symmetrizer,
    write_matrix,
)

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

CUBE3_P = np.array(
    [
        [1.0, 3.0, 3.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
        [1.0, -3.0, 3.0, -1.0],
    ]
)


@pytest.fixture
def announce(capfd):
    """Report a criterion PASS line on the real stdout, bypassing capture."""

    def _announce(name: str, detail: str = ""):
        suffix = f"  [{detail}]" if detail else ""
        with capfd.disabled():
            print(f"PASS {name}{suffix}", flush=True)

    return _announce


@pytest.fixture(scope="module")
def property_suites():
    """Run the four randomized suites once at acceptance scale, timed.

    A suite asserts each of its checks, so a failing one errors every test
    that reads it, naming the instance.
    """
    out = {}
    t0 = time.perf_counter()
    out["path"] = path_equivalence(trials=200, d_max=10, seed=0)
    out["path_seconds"] = time.perf_counter() - t0
    out["distance"] = distance_equivalence(trials=200, d_max=7, seed=0)
    out["hessenberg"] = hessenberg_powers(trials=100, d_max=8, seed=0)
    out["symmetrizer"] = symmetrizer(trials=100, d_max=10, seed=0)
    return out


def test_accept_three_point_path_profile(announce):
    prof = analyze_matrix(PATH3).profile(0, 2)
    assert np.max(np.abs(prof.values - 1.0)) <= 1e-10
    assert abs(prof.common_value - 1.0) <= 1e-10

    side = analyze_matrix(PATH3).profile(0, 1)
    root2 = math.sqrt(2.0)
    assert np.max(np.abs(side.values - np.array([root2, 0.0, -root2]))) <= 1e-10
    assert side.common_value is None

    analyze_matrix(PATH3).profile(0, 2)  # warm
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        analyze_matrix(PATH3).profile(0, 2)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"warm profile call took {best * 1e3:.3f} ms"
    announce("three-point path profile", f"warm call {best * 1e3:.3f} ms")


def test_accept_path_form_equivalence_suite(property_suites, announce):
    cases, _ = property_suites["path"]
    assert cases >= 2000  # 200 instances for each d in 1..10, all positions
    elapsed = property_suites["path_seconds"]
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    announce("path-form equivalence suite", f"{cases} position checks in {elapsed:.1f} s")


def test_accept_distance_form_equivalence_suite(property_suites, announce):
    cases, worst = property_suites["distance"]
    assert cases > 0
    # diagonalizable instances must actually occur for the check to bite
    assert worst["diagonalizable_fraction"] > 0.1
    announce(
        "distance-form equivalence suite",
        f"{cases} position checks, {worst['diagonalizable_fraction']:.0%} diagonalizable",
    )


def test_accept_hessenberg_power_structure(property_suites, announce):
    cases = property_suites["hessenberg"]
    announce("Hessenberg power-pattern and independence suite", f"{cases} power checks")


def test_accept_tridiagonal_symmetrizer(property_suites, announce):
    balance = property_suites["symmetrizer"]
    assert balance <= 1e-9
    announce("tridiagonal symmetrizer suite", f"worst balance residual {balance:.2e} of scale")


def test_accept_spectral_identity_residuals(property_suites, announce):
    worst = {}
    for key in ("path", "distance"):
        for name, value in property_suites[key][1].items():
            worst[name] = max(worst.get(name, 0.0), value)
    assert worst["sum_to_identity"] <= 1e-8
    assert worst["idempotency"] <= 1e-8
    assert worst["reconstruction_rel"] <= 1e-8
    assert worst["cofactor_rel"] <= 1e-6
    announce(
        "spectral identities over all suite spectra",
        "sum {sum_to_identity:.1e} idem {idempotency:.1e} "
        "recon {reconstruction_rel:.1e} cofactor {cofactor_rel:.1e}".format(**worst),
    )


def test_accept_cube3_end_to_end(announce):
    t0 = time.perf_counter()
    scheme = builtin_scheme("hypercube", 3)
    assert scheme.k.tolist() == [1, 3, 3, 1]
    ed = eigendata(scheme)
    assert np.max(np.abs(ed.m - np.array([1.0, 3.0, 3.0, 1.0]))) <= 1e-9
    assert np.max(np.abs(ed.P - CUBE3_P)) <= 1e-9
    assert np.max(np.abs(ed.Q - CUBE3_P)) <= 1e-9
    assert np.max(np.abs(ed.q - scheme.p)) <= 1e-9

    assert detect_p_polynomial(scheme) == ((1, (0, 1, 2, 3), 3),)
    assert detect_q_polynomial(ed) == ((1, (0, 1, 2, 3), 3),)

    expected = np.array([1.0, -3.0, 3.0, -1.0])
    pc = check_scheme_characterization(ed, "p", 1, 3)
    assert pc.side_i and pc.side_ii
    assert np.max(np.abs(pc.actual - expected)) <= 1e-9
    qc = check_scheme_characterization(ed, "q", 1, 3)
    assert qc.side_i and qc.side_ii
    assert np.max(np.abs(qc.actual - expected)) <= 1e-9
    wrong = check_scheme_characterization(ed, "p", 1, 2)
    assert not wrong.side_i and not wrong.side_ii

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"cube3 battery took {elapsed:.2f} s"
    announce("3-cube scheme end-to-end", f"{elapsed * 1e3:.0f} ms")


def test_accept_cube4_end_to_end(announce):
    t0 = time.perf_counter()
    scheme = builtin_scheme("hypercube", 4)
    assert scheme.size == 16 and scheme.d == 4
    assert scheme.k.tolist() == [1, 4, 6, 4, 1]
    ed = eigendata(scheme)
    assert np.max(np.abs(ed.P - ed.Q)) <= 1e-9
    assert np.max(np.abs(ed.q - scheme.p)) <= 1e-9

    theta = ed.P[:, 1]
    assert np.max(np.abs(theta - np.array([4.0, 2.0, 0.0, -2.0, -4.0]))) <= 1e-9
    expected = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    pc = check_scheme_characterization(ed, "p", 1, 4)
    assert pc.side_i and pc.side_ii
    assert np.max(np.abs(pc.actual - expected)) <= 1e-9
    qc = check_scheme_characterization(ed, "q", 1, 4)
    assert qc.side_i and qc.side_ii

    # even cubes carry the antipodal second ordering besides the usual one
    structs = set(detect_p_polynomial(scheme))
    assert structs == {(1, (0, 1, 2, 3, 4), 4), (3, (0, 3, 2, 1, 4), 4)}
    assert set(detect_q_polynomial(ed)) == structs

    assert float(np.min(ed.q)) >= -1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"cube4 battery took {elapsed:.2f} s"
    announce("4-cube scheme end-to-end", f"{elapsed * 1e3:.0f} ms")


def test_accept_degenerate_sizes(tmp_path, announce):
    degenerate(seed=0)

    single = analyze_matrix(np.array([[0.7]])).profile(0, 0)
    assert abs(single.common_value - 1.0) <= 1e-10  # empty gap product

    one = tmp_path / "one.txt"
    write_matrix(np.array([[0.7]]), str(one))
    assert cli_main(["analyze", str(one)]) == 0
    assert cli_main(["check", str(one), "--form", "path", "--s", "0", "--t", "0"]) == 0
    assert cli_main(["check", str(one), "--form", "distance", "--s", "0", "--t", "0"]) == 0

    two = tmp_path / "two.txt"
    write_matrix(np.array([[0.0, 1.5], [0.5, 0.0]]), str(two))
    assert cli_main(["analyze", str(two)]) == 0
    assert cli_main(["check", str(two), "--form", "path", "--s", "0", "--t", "1"]) == 0
    assert cli_main(["check", str(two), "--form", "path", "--s", "0", "--t", "0"]) == 1

    for action in (["info"], ["p-poly"], ["q-poly"], ["p-check", "1", "1"], ["q-check", "1", "1"]):
        assert cli_main(["scheme", "builtin:complete(2)"] + action) == 0
    announce("degenerate sizes (single vertex, single edge, two-point scheme)")
