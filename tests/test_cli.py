"""Command-line interface: exit codes, JSON reports, determinism."""

import contextlib
import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spectralpath
from spectralpath.cli import main
from suites import random_instance, write_matrix, write_scheme
from test_exact_oracle import draw

# Directory holding the imported package, so child processes run this copy.
SRC_DIR = str(Path(spectralpath.__file__).resolve().parent.parent)
SUBPROCESS_TIMEOUT = 60

PATH3_TEXT = "3\n0 1 0\n1 0 1\n0 1 0\n"


@pytest.fixture()
def path3_file(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text(PATH3_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *argv):
    """`run` for an argv that argparse rejects, exiting through SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_analyze_human_output(capsys, path3_file):
    code, out, err = run(capsys, "analyze", path3_file)
    assert code == 0
    assert "path order: 0 -> 1 -> 2" in out
    assert "multiplicity_free" in out
    assert "constant profile at (0, 2): 1" in out


@pytest.mark.parametrize(
    "rows, lines",
    [
        (  # the 3-cycle permutation: no symmetrizer, eigenvalues 1 and a complex pair
            "0 1 0\n0 0 1\n1 0 0\n",
            ["order: 3   arcs: 3", "path order: not a bidirected path", "spectral class: complex_spectrum",
             "eigenvalues: 1 (x1)", "not symmetrizable: asymmetric_pattern at (0, 1)"],
        ),
        (  # a weighted triangle: multiplicity-free, but no profile is a nonzero constant
            "0 1 2\n1 0 3\n2 3 0\n",
            ["order: 3   arcs: 6", "path order: not a bidirected path", "spectral class: multiplicity_free",
             "eigenvalues: 4.11309 (x1), -0.911179 (x1), -3.20191 (x1)", "symmetrizer weights: (1, 1, 1)",
             "constant profile positions: none"],
        ),
        (  # K3: eigenvalue -1 twice, clustered on the symmetric route
            "0 1 1\n1 0 1\n1 1 0\n",
            ["order: 3   arcs: 6", "path order: not a bidirected path", "spectral class: diagonalizable_not_mf",
             "eigenvalues: 2 (x1), -1 (x2)", "symmetrizer weights: (1, 1, 1)"],
        ),
    ],
    ids=["cycle3", "weighted_triangle", "K3"],
)
def test_analyze_human_output_off_the_path(capsys, tmp_path, rows, lines):
    path = tmp_path / "matrix.txt"
    path.write_text("3\n" + rows)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == lines


def test_analyze_json_report(capsys, path3_file):
    code, out, _ = run(capsys, "analyze", path3_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["order"] == 3
    assert report["result"]["path_order"] == [0, 1, 2]
    assert report["result"]["spectral_kind"] == "multiplicity_free"
    positions = {(i["s"], i["t"]) for i in report["result"]["constant_profile_positions"]}
    assert positions == {(0, 2), (2, 0)}


def test_analyze_lists_the_shifted_path_ends_with_their_arc_products(capsys, tmp_path):
    # the path 0 - 2 - 3 - 1 plus 462 I: each end's profile is constant at the product of the arcs between the ends
    A = random_instance("permuted_path", 3, 1) + 462.0 * np.eye(4)
    path = tmp_path / "shifted.txt"
    write_matrix(A, path)
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["path_order"] == [0, 2, 3, 1]
    listed = {(p["s"], p["t"]): p["value"] for p in result["constant_profile_positions"]}
    assert listed.keys() == {(0, 1), (1, 0)}
    assert listed[0, 1] == pytest.approx(A[0, 2] * A[2, 3] * A[3, 1], rel=1e-9)
    assert listed[1, 0] == pytest.approx(A[1, 3] * A[3, 2] * A[2, 0], rel=1e-9)


def test_analyze_exits_three_naming_the_first_position_where_its_sides_disagree(capsys, tmp_path):
    # the order-6 path 1 - 2 - 0 - 3 - 4 - 5 with dyadic arcs from 2^-10 to 2^16: its symmetrizer
    # weights span 2^43, and the profile at the end (1, 5) spreads by 1.3e-3 of its largest value
    path = tmp_path / "dyadic.txt"
    write_matrix(np.array(draw("permuted_path", "dyadic", 1)), path)
    verdict = "sides disagree at (1, 5): pattern side True, spectral side False: numerical inconsistency"
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == verdict
    assert report["result"]["path_order"] == [1, 2, 0, 3, 4, 5]
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 3
    assert out.splitlines()[-1] == f"verdict: {verdict}"


def test_check_json_reports_the_position_profile(capsys, path3_file):
    # the one way to ask for the profile at one position
    code, out, _ = run(capsys, "check", path3_file, "--form", "path", "--s", "0", "--t", "1", "--json")
    assert code == 1
    prof = json.loads(out)["result"]["profile"]
    assert prof["common_value"] is None
    assert len(prof["values"]) == 3


def test_output_is_byte_stable(capsys, path3_file):
    _, first, _ = run(capsys, "analyze", path3_file, "--json")
    _, second, _ = run(capsys, "analyze", path3_file, "--json")
    assert first == second
    _, h1, _ = run(capsys, "scheme", "builtin:hypercube(3)", "info")
    _, h2, _ = run(capsys, "scheme", "builtin:hypercube(3)", "info")
    assert h1 == h2


def test_check_exit_codes(capsys, path3_file):
    code, out, _ = run(capsys, "check", path3_file, "--form", "path", "--s", "0", "--t", "2")
    assert code == 0
    assert "both sides hold" in out
    code, out, _ = run(capsys, "check", path3_file, "--form", "path", "--s", "0", "--t", "1")
    assert code == 1
    assert "both sides fail" in out
    code, _, _ = run(capsys, "check", path3_file, "--form", "distance", "--s", "0", "--t", "2")
    assert code == 0


def test_check_json_fields(capsys, path3_file):
    code, out, _ = run(
        capsys, "check", path3_file, "--form", "distance", "--s", "0", "--t", "2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    res = report["result"]
    assert res["condition_i"] is True and res["condition_ii"] is True
    assert res["distance"] == 2
    assert res["profile"]["common_value"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{path}"),
        ("check", "{path}", "--form", "path", "--s", "0", "--t", "2"),
        ("scheme", "builtin:hypercube(3)", "info"),
    ],
)
def test_json_report_is_one_line(capsys, path3_file, argv):
    code, out, _ = run(capsys, *(a.format(path=path3_file) for a in argv), "--json")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert isinstance(json.loads(out), dict)


TOLERANCE_KEYS = {"zero_tol", "eig_tol", "residual_tol"}
PROFILE_KEYS = {"values", "common_value", "spread"}
ANALYZE_KEYS = {
    "order", "arc_count", "path_order", "spectral_kind", "eigenvalues", "symmetrizable", "kappa",
    "not_symmetrizable", "constant_profile_positions",
}
CHECK_KEYS = {
    "form", "s", "t", "condition_i", "condition_ii", "equivalent", "spectral_kind", "symmetrizable",
    "path_order", "distance", "profile",
}
INFO_KEYS = {"size", "d", "valencies", "multiplicities", "P", "Q", "krein_min", "krein_max", "residuals"}
POLY_KEYS = {"size", "d", "structures"}
SCHEME_CHECK_KEYS = {
    "kind", "generator", "last", "side_i", "side_ii", "equivalent", "theta", "expected", "actual",
    "max_deviation",
}
STRUCTURE_KEYS = {"generator", "ordering", "last"}
CUBE = "builtin:hypercube(3)"


@pytest.mark.parametrize(
    "argv, keys, nested",
    [
        (("analyze", "{path}"), ANALYZE_KEYS, {("constant_profile_positions", 0): {"s", "t", "value"}}),
        (("analyze", "{nonsym}"), ANALYZE_KEYS, {("not_symmetrizable",): {"reason", "witness"}}),
        (("check", "{path}", "--form", "path", "--s", "0", "--t", "2"), CHECK_KEYS, {("profile",): PROFILE_KEYS}),
        (("check", "{path}", "--form", "distance", "--s", "0", "--t", "1"), CHECK_KEYS, {("profile",): PROFILE_KEYS}),
        (("scheme", CUBE, "info"), INFO_KEYS, {}),
        (("scheme", CUBE, "p-poly"), POLY_KEYS, {("structures", 0): STRUCTURE_KEYS}),
        (("scheme", CUBE, "q-poly"), POLY_KEYS, {("structures", 0): STRUCTURE_KEYS}),
        (("scheme", CUBE, "p-check", "1", "3"), SCHEME_CHECK_KEYS, {}),
        (("scheme", CUBE, "q-check", "1", "2"), SCHEME_CHECK_KEYS, {}),
    ],
    ids=["analyze", "analyze-nonsym", "check-path", "check-distance", "info", "p-poly", "q-poly",
         "p-check", "q-check"],
)
def test_json_result_keys_are_pinned(capsys, tmp_path, path3_file, argv, keys, nested):
    # reports encode dataclasses field by field, so a new field must show here
    nonsym = tmp_path / "nonsym.txt"
    nonsym.write_text("2\n1 1\n0 2\n")
    argv = [a.format(path=path3_file, nonsym=nonsym) for a in argv]
    report = json.loads(run(capsys, *argv, "--json")[1])
    assert set(report["tolerances"]) == TOLERANCE_KEYS
    result = report["result"]
    assert set(result) == keys
    for path, inner in nested.items():
        value = result
        for key in path:
            value = value[key]
        assert set(value) == inner, path


def test_json_report_leaves_no_cyclic_garbage(path3_file):
    """One `main` call frees everything it allocates by reference counting alone."""
    calls = [("analyze", path3_file, "--json"), ("scheme", "builtin:hypercube(3)", "info", "--json")]
    for argv in calls:  # warm-up: caches and lazy imports
        with contextlib.redirect_stdout(io.StringIO()):
            main(list(argv))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(argv))
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
            gc.garbage.clear()
            assert left == [], argv
    finally:
        gc.set_debug(0)
        if enabled:
            gc.enable()


def test_unknown_builtin_scheme_exits_two_naming_it(capsys):
    # builtin_scheme alone knows the family names
    code, out, err = run(capsys, "scheme", "builtin:petersen(10)", "info")
    assert (code, out) == (2, "")
    assert "unknown builtin scheme 'petersen'" in err


def test_malformed_inputs_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, err = run(capsys, "check", str(bad), "--form", "path", "--s", "0", "--t", "1")
    assert code == 2
    good = tmp_path / "good.txt"
    good.write_text(PATH3_TEXT)
    code, _, err = run(capsys, "analyze", str(good), "--zero-tol", "-1")
    assert code == 2
    huge = tmp_path / "huge.scheme"  # a P row entry beyond int64
    huge.write_text("SCHEME X=2 D=1 FORM=PTENSOR\nK 1 1\nP 0\n0 99999999999999999999999\n")
    code, _, err = run(capsys, "scheme", str(huge), "info")
    assert code == 2
    assert "line 4" in err


def test_valency_near_int64_limit_is_named_exactly(capsys, tmp_path):
    # the valencies stay int64 (no float round trip) and sum in Python ints
    path = tmp_path / "big.scheme"
    path.write_text(
        "SCHEME X=2 D=1 FORM=PTENSOR\nK 1 9223372036854775807\n"
        "P 0\n1 0\n0 9223372036854775807\nP 1\n0 1\n1 0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, "scheme", str(path), "info")
    assert code == 2
    assert "9223372036854775807" in err and "-9223372036854775808" not in err


def test_out_of_range_position_exit_two(capsys, path3_file):
    code, _, err = run(capsys, "check", path3_file, "--form", "path", "--s", "0", "--t", "9")
    assert code == 2
    assert "error:" in err


def test_check_position_out_of_range_exits_two(capsys, tmp_path, path3_file):
    # the identity is not multiplicity-free, so no profile is formed; the
    # position is still checked, in both forms, as it is on a multiplicity-free matrix
    ident = tmp_path / "identity.txt"
    ident.write_text("2\n1 0\n0 1\n")
    for matrix in (str(ident), path3_file):
        for s, t in (("99", "0"), ("0", "-1")):
            for form in ("path", "distance"):
                code, out, err = run(capsys, "check", matrix, "--form", form, "--s", s, "--t", t, "--json")
                assert (code, out) == (2, "")
                assert f"entry position ({s}, {t}) outside" in err
    code, out, _ = run(capsys, "check", str(ident), "--form", "distance", "--s", "1", "--t", "0", "--json")
    assert code == 1
    assert json.loads(out)["result"]["profile"] is None


@pytest.mark.parametrize("half", [("--s", "0"), ("--t", "1")])
def test_analyze_half_given_position_exits_two(capsys, path3_file, half):
    # analyze takes no position, whole or half: `check --json` reports the profile at one
    code, out, err = run_exit(capsys, "analyze", path3_file, *half, "--json")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(half)}" in err
    code, out, err = run_exit(capsys, "analyze", path3_file, "--s", "0", "--t", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --s 0 --t 1" in err


def _hamming_p_tensor(n):
    """Intersection numbers of the binary Hamming scheme H(n, 2) in closed form."""
    from math import comb

    p = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for h in range(n + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                if (h + i - j) % 2 == 0 and abs(i - j) <= h <= i + j:
                    p[h, i, j] = comb(h, (h + i - j) // 2) * comb(n - h, (i + j - h) // 2)
    return p, [comb(n, i) for i in range(n + 1)]


def test_eigendata_residual_failure_exits_three(capsys, tmp_path):
    # H(32, 2) is a valid scheme, but its eigendata lose the QP identity in
    # double precision: a numerical failure, not an input error
    from spectralpath.schemes import scheme_from_p_tensor

    path = tmp_path / "h32.scheme"
    write_scheme(scheme_from_p_tensor(*_hamming_p_tensor(32)), str(path))
    code, _, err = run(capsys, "scheme", str(path), "info")
    assert code == 3
    assert "residual" in err


@pytest.mark.parametrize(
    "routine, message, argv",
    [
        ("eigh", "Eigenvalues did not converge", lambda path: ("analyze", path)),
        ("solve", "Singular matrix", lambda path: ("scheme", "builtin:complete(4)", "info")),
    ],
    ids=["analyze", "scheme-info"],
)
def test_lapack_failure_exits_three(capsys, monkeypatch, path3_file, routine, message, argv):
    # a singular or unconverged LAPACK call is a numerical failure, exit 3
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(np.linalg, routine, failing)
    code, _, err = run(capsys, *argv(path3_file))
    assert code == 3
    assert message in err


def test_unresolvable_eigenvalue_group_exits_three(capsys, tmp_path):
    # eigenvalues 0, 0, 5e-8 and 1: 5e-8 lies outside the eigenvalue floor
    # but inside the looser rank threshold, so the double eigenvalue 0 shows
    # three eigenvector directions and cannot be classified
    path = tmp_path / "tri.txt"
    path.write_text("4\n0 0 0 1\n0 0 0 0\n0 0 5e-8 0\n0 0 0 1\n")
    argv = ("check", str(path), "--form", "distance", "--s", "0", "--t", "3")
    code, _, _ = run(capsys, *argv)
    assert code == 1
    code, _, err = run(capsys, *argv, "--residual-tol", "1e-7")
    assert code == 3
    assert "cannot be resolved" in err


_HUGE_SYMMETRIC = "3\n0 1e160 0\n1e160 0 1\n0 1 0\n"
_HUGE_CYCLE = "3\n0 1e160 1\n2e160 0 1\n1 1 0\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        pytest.param(text, argv, id=f"{cmd}{suffix}")
        for text, suffix in ((_HUGE_SYMMETRIC, ""), (_HUGE_CYCLE, "-eig"))
        for cmd, argv in (("analyze", ("analyze",)), ("check", ("check", "--form", "path", "--s", "0", "--t", "2")))
    ],
)
def test_overflow_exits_three_with_one_error_line(capsys, tmp_path, text, argv):
    # eigenvalues near 0 and +-1e160 or +-1.4e160: the gap products leave the
    # float range.  On the symmetric matrix an uncaught OverflowError exited 1,
    # the "not equivalent" code, after the symmetrizer's sign test A * A^T had
    # warned about overflow.  The second matrix has no symmetrizer (the cycle
    # 0 -> 1 -> 2 -> 0 has ratio 1/2), and the sum of its squared entries
    # overflows: the eigenvalue grouping must form ||A||_F at a scale, or every
    # disk merges and `analyze` reports a wrong kind
    path = tmp_path / "huge.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == "error: gap products overflow the float range; eigenvalues spread too far\n"


@pytest.mark.parametrize(
    "text, t",
    [
        pytest.param("2\n0 5e7\n2e-8 0\n", 1, id="order-2"),
        pytest.param("6\n" + "".join(
            " ".join("1e3" if j == i + 1 else "1e-3" if j == i - 1 else "0" for j in range(6)) + "\n"
            for i in range(6)), 5, id="order-6"),
        pytest.param("6\n" + "".join(
            " ".join("1e6" if j == i + 1 else "1e-6" if j == i - 1 else "0" for j in range(6)) + "\n"
            for i in range(6)), 5, id="order-6-1e6"),
    ],
)
def test_weighted_path_keeps_its_distinct_eigenvalues(capsys, tmp_path, text, t):
    # A = D^-1 P D for the unweighted path P, with D spanning 5e7, 1e15 or
    # 1e30: its eigenvalues are P's, 2 cos(k pi / (n + 1)), and perfectly
    # conditioned in the symmetric matrix eigh solves, but disks sized by A's
    # own norm and eigenvector condition numbers would merge them all into one
    # group, and projector identities checked in A's frame would fail.
    # `analyze` may still exit 3 on a profile judged against an absolute
    # threshold, but after its report
    path = tmp_path / "weighted.txt"
    path.write_text(text)
    n = t + 1
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code in (0, 3)
    result = json.loads(out)["result"]
    assert result["spectral_kind"] == "multiplicity_free"
    values, counts = zip(*result["eigenvalues"])
    assert counts == (1,) * n
    assert np.allclose(values, 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)), rtol=0, atol=1e-12)
    code, out, _ = run(capsys, "check", str(path), "--form", "path", "--s", "0", "--t", str(t))
    assert (code, out.splitlines()[-1]) == (0, "verdict: both sides hold")


def test_scheme_commands(capsys):
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "info")
    assert code == 0
    assert "|X| = 8" in out
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "p-poly")
    assert code == 0
    assert "generator 1" in out
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "q-poly", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["structures"][0]["ordering"] == [0, 1, 2, 3]


def test_scheme_hypercube12_closed_form(capsys):
    # 4096 vertices: the builtin comes from its intersection numbers, so info
    # and detection stay cheap; P is the Krawtchouk matrix K_j(i)
    from math import comb

    n = 12
    code, out, _ = run(capsys, "scheme", f"builtin:hypercube({n})", "info", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    krawtchouk = [
        [sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1)) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    assert (result["size"], result["d"]) == (4096, n)
    assert np.allclose(result["P"], krawtchouk, rtol=0, atol=1e-6)
    assert np.allclose(result["Q"], krawtchouk, rtol=0, atol=1e-6)
    # the distance ordering, and the one generated by distance n - 1
    expect = [
        {"generator": 1, "ordering": list(range(n + 1)), "last": n},
        {"generator": n - 1, "ordering": [j if j % 2 == 0 else n - j for j in range(n + 1)], "last": n},
    ]
    for action in ("p-poly", "q-poly"):
        code, out, _ = run(capsys, "scheme", f"builtin:hypercube({n})", action, "--json")
        assert code == 0
        assert json.loads(out)["result"]["structures"] == expect, action


def test_scheme_endpoint_checks(capsys):
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "p-check", "1", "3")
    assert code == 0
    assert "both sides hold" in out
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "p-check", "1", "2")
    assert code == 1
    code, out, _ = run(capsys, "scheme", "builtin:hypercube(3)", "q-check", "1", "3")
    assert code == 0


def test_scheme_argument_validation(capsys):
    code, _, err = run(capsys, "scheme", "builtin:hypercube(3)", "p-check", "1")
    assert code == 2
    code, _, err = run(capsys, "scheme", "builtin:hypercube(3)", "info", "4")
    assert code == 2
    code, _, err = run(capsys, "scheme", "builtin:nosuch(3)", "info")
    assert code == 2
    code, _, err = run(capsys, "scheme", "builtin:hypercube(99)", "info")
    assert code == 2


def test_scheme_file_source(capsys, tmp_path):
    from spectralpath.schemes import builtin_scheme

    path = tmp_path / "k4.scheme"
    write_scheme(builtin_scheme("complete", 4), str(path))
    code, out, _ = run(capsys, "scheme", str(path), "info", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["multiplicities"] == pytest.approx([1.0, 3.0], abs=1e-9)
    assert "seed" not in report  # one fixed combination: nothing to name


def _run_python(*args, timeout=SUBPROCESS_TIMEOUT):
    """Run `python *args` in a child process on the code under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _run_module(*argv, timeout=SUBPROCESS_TIMEOUT):
    """Run `python -m spectralpath` in a child process on the code under test."""
    return _run_python("-m", "spectralpath", *argv, timeout=timeout)


@pytest.mark.parametrize("n", [4, 5])
def test_symmetrizer_weight_underflow_exits_three(tmp_path, n):
    # a bidirected path with superdiagonal 1e-9 and subdiagonal 1e150: the
    # propagated weights 1e-159, 1e-318, ... underflow to 0 at vertex 3.
    # Taking 0 for "not yet visited", the search looped forever on the 5 x 5
    # file and reported a false inconsistent cycle on the 4 x 4 one.
    A = np.diag(np.full(n - 1, 1e-9), 1) + np.diag(np.full(n - 1, 1e150), -1)
    path = tmp_path / f"tri{n}.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in A.tolist()))
    proc = _run_module("analyze", str(path), timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "weight of vertex 3 is 0.0" in proc.stderr


def test_console_entry_point(path3_file, tmp_path):
    # console_main passes main's return code through sys.exit unchanged.
    proc = _run_module("analyze", path3_file)
    assert proc.returncode == 0, proc.stderr
    assert "path order" in proc.stdout
    proc = _run_module("check", path3_file, "--form", "path", "--s", "0", "--t", "1")
    assert proc.returncode == 1, proc.stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    proc = _run_module("analyze", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "line 2" in proc.stderr


def test_parser_is_built_once_and_reused(capsys, path3_file):
    # the same cached parser serves different subcommands in one process;
    # each call must still answer as if it ran alone
    from spectralpath.cli import build_parser

    assert build_parser() is build_parser()
    calls = [
        ("analyze", path3_file),
        ("check", path3_file, "--form", "path", "--s", "0", "--t", "2"),
        ("scheme", "builtin:hypercube(3)", "p-check", "1", "2", "--json"),
        ("check", path3_file, "--form", "distance", "--s", "2", "--t", "0", "--json"),
        # every command's cold path: a missing import in a handler shows
        # only in a fresh interpreter
        ("scheme", CUBE, "info"),
        ("scheme", CUBE, "p-poly"),
        ("scheme", CUBE, "q-poly"),
        ("scheme", CUBE, "q-check", "1", "3"),
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    for argv, (code, out) in zip(calls, in_process):
        proc = _run_module(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), (argv, proc.stderr)
    assert [code for code, _ in in_process] == [0, 0, 1, 0, 0, 0, 0, 0]


# Runs `main` on argv[1:] in a fresh interpreter, then prints the package
# modules and argparse, if loaded.
_LOADED_BY_MAIN = """
import contextlib, io, sys
from spectralpath.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:  # argparse's usage error
        pass
print(" ".join(sorted(m for m in sys.modules if m.startswith("spectralpath.") or m == "argparse")))
"""
_MATRIX_MODULES = "cli digraph equivalence linalg spectra symmetrize"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("analyze", "{path}"), _MATRIX_MODULES),
        (("check", "{path}", "--form", "path", "--s", "0", "--t", "2"), _MATRIX_MODULES),
        (("scheme", CUBE, "info"), "cli digraph linalg schemes"),
        (("check", "{path}", "--form", "path"), "argparse cli linalg"),
    ],
    ids=["analyze", "check", "scheme", "usage-error"],
)
def test_each_command_loads_only_its_own_modules(path3_file, argv, loaded):
    # argparse loads only when the argv fast path leaves a call to it
    proc = _run_python("-c", _LOADED_BY_MAIN, *(a.format(path=path3_file) for a in argv))
    assert proc.returncode == 0, proc.stderr
    names = ["argparse" if m == "argparse" else m.split(".", 1)[1] for m in proc.stdout.split()]
    assert sorted(names) == loaded.split()


@pytest.mark.skipif(
    shutil.which("spectralpath") is None, reason="spectralpath console script not installed"
)
def test_installed_console_script(path3_file):
    proc = subprocess.run(
        ["spectralpath", "analyze", path3_file],
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "path order" in proc.stdout


def test_console_script_declared_in_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    assert config["project"]["scripts"]["spectralpath"] == "spectralpath.cli:console_main"


# A grammar of argv for the three commands: each command's positionals, then
# its options with values drawn per option.  Mutations add the forms the
# fast path must leave to argparse.
_VALUES = {
    "--s": ["0", "2", "10", "٣", "1_0", "x", "1.5", " 4", "-1"],
    "--t": ["0", "1", "2", "-2", "0x1"],
    "--form": ["path", "distance", "Path", "dist"],
    "--zero-tol": ["1e-10", "0", "nan", "-1", "1e", "inf"],
    "--eig-tol": ["1e-8", "2", ".5", "-.5"],
    "--residual-tol": ["1e-7", "1_0.5", "x"],
}
_POSITIONALS = {
    "analyze": [["m.txt"]],
    "check": [["m.txt"]],
    "scheme": [
        ["builtin:hypercube(3)", action, *idx]
        for action in ("info", "p-poly", "q-poly", "p-check", "q-check", "bogus")
        for idx in ([], ["1", "3"], ["1", "x"])
    ],
}
_OPTIONS = {
    "analyze": [],
    "check": ["--form", "--s", "--t"],
    "scheme": [],
}
_COMMON_OPTIONS = ["--zero-tol", "--eig-tol", "--residual-tol", "--json"]
_MUTATIONS = [
    lambda argv: argv + ["--s=3"],
    lambda argv: argv + ["--jso"],  # abbreviation
    lambda argv: argv + ["--resid", "2"],  # abbreviation
    lambda argv: argv + ["--json", "--json"],  # repeated
    lambda argv: argv + ["--zero-tol", "1", "--zero-tol", "2"],
    lambda argv: argv + ["--", "x"],
    lambda argv: argv + ["-h"],
    lambda argv: argv + ["--help"],
    lambda argv: argv + ["stray"],
    lambda argv: argv[:1] + ["-1"] + argv[1:],
    lambda argv: argv + ["--zero-tol"],  # missing value
    lambda argv: argv + ["--zero-tol", "--json"],
    lambda argv: [t for t in argv if t not in ("--form", "path", "distance")],
    lambda argv: argv[:1] + argv[2:],  # a positional dropped
    lambda argv: ["chek"] + argv[1:],
    lambda argv: ["--json"] + argv,
    lambda argv: argv + ["", "--json"],
    lambda argv: argv[:1] + argv[1:][::-1],
    lambda argv: argv[:2] + ["--json"] + argv[2:],  # an option between positionals
]


def _grammar_argvs(count: int, seed: int):
    rng = random.Random(seed)
    out = [[]]
    for _ in range(count):
        cmd = rng.choice(sorted(_POSITIONALS))
        argv = [cmd, *rng.choice(_POSITIONALS[cmd])]
        options = _OPTIONS[cmd] + _COMMON_OPTIONS
        for flag in rng.sample(options, rng.randrange(len(options) + 1)):
            argv += [flag] if flag == "--json" else [flag, rng.choice(_VALUES[flag])]
        if cmd == "check" and rng.random() < 0.8:  # its required options, valid
            for flag, value in (("--form", "path"), ("--s", "0"), ("--t", "2")):
                if flag not in argv:
                    argv += [flag, value]
        if rng.random() < 0.3:
            argv = rng.choice(_MUTATIONS)(argv)
        out.append(argv)
    return out


def _parse_with_argparse(argv):
    """(namespace dict or None, exit code, stdout, stderr) of argparse alone."""
    from spectralpath.cli import build_parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


def test_fast_argv_path_is_exactly_argparse():
    # every argv the fast path accepts gives argparse's Namespace, and it
    # defers on every argv argparse rejects or answers with help
    from spectralpath.cli import _fast_args

    accepted = deferred = 0
    for argv in _grammar_argvs(3000, seed=13):
        fast = _fast_args(list(argv))
        expected, code, _, _ = _parse_with_argparse(list(argv))
        if fast is None:
            deferred += 1
            continue
        accepted += 1
        assert expected is not None, argv
        # repr compares nan values and the handler functions by identity
        assert {k: repr(v) for k, v in vars(fast).items()} == {
            k: repr(v) for k, v in expected.items()
        }, argv
    assert accepted > 500 and deferred > 500


def test_rejected_argv_behave_as_argparse():
    # argparse stays the only source of help, usage and error text; a command
    # and an option that no longer exists exit 2 through it too
    fixed = [
        ["selftest"],
        ["selftest", "--trials", "2", "--seed", "1"],
        ["scheme", CUBE, "info", "--seed", "-3"],
        ["scheme", CUBE, "q-check", "1", "3", "--seed=-1", "--json"],
    ]
    for argv in fixed:
        expected, code, _, err = _parse_with_argparse(argv)
        assert (expected, code) == (None, 2), argv
        assert ("invalid choice: 'selftest'" if argv[0] == "selftest" else "unrecognized arguments") in err
    for argv in fixed + _grammar_argvs(600, seed=29):
        expected, code, out, err = _parse_with_argparse(list(argv))
        if expected is not None:
            continue
        got_out, got_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
        assert (exc.value.code, got_out.getvalue(), got_err.getvalue()) == (code, out, err), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "m.txt", "--seed", "3"],  # plain: the fast path would take it without --seed
        ["analyze", "m.txt", "--zero-tol=0", "--json", "--seed", "3"],  # argparse's form
        ["check", "m.txt", "--form", "path", "--s", "0", "--t", "2", "--seed", "3"],
        ["check", "m.txt", "--form=path", "--s", "0", "--t", "2", "--seed", "3"],
        ["scheme", "builtin:complete(4)", "info", "--seed", "3"],
    ],
)
def test_commands_reject_seed(argv):
    # no command draws from a chosen stream, so none takes a seed
    from spectralpath.cli import _fast_args

    assert _fast_args(argv) is None
    expected, code, out, err = _parse_with_argparse(argv)
    assert (expected, code) == (None, 2)
    assert "unrecognized arguments: --seed 3" in err
    got_out, got_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, got_out.getvalue(), got_err.getvalue()) == (2, out, err)
