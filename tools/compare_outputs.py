"""Compare the command-line output of two checkouts, call by call.

Usage (from the root of a checkout):

    python3 tools/compare_outputs.py --against <other checkout> --seeds 3 7

Writes the inputs of every workload in BENCHMARK.json for each seed once,
with this checkout's `bench/workloads.build`, under a temporary directory.
These are `analyze` (which sweeps the profile at every position), `check`
and `scheme` calls.  `analyze` also runs on fixed matrices with repeated
eigenvalues that the benchmark never draws (K_40, the order-30 star, the
6-cube, a skewed near-degenerate diagonal and diag(2^18, 2^-8, 0)), so a
change in eigenvalue grouping shows as a differing call.  `analyze`, and `check --form path` at
both path ends, also run on paths from the reach ledger (`tools/reach.py`)
whose profile verdicts sit near the constancy bound: the unit paths with
one heavy loop, Kac-Sylvester at n = 22 and 32, the order-4 permuted path
plus 462 I and Wilkinson's W+ of order 15, whose closest eigenvalues are
4e-8 apart; so a verdict that moves shows as a differing call.  Every
call runs with and without `--json` in each checkout: one fresh interpreter
per checkout, importing spectralpath from that checkout's `src/` and
calling `spectralpath.cli.main` in-process.  The exit code, stdout and
stderr of every call are compared.  Prints the number of calls compared;
of the workload calls, the calls on fixed matrices and the calls on reach
paths, how many differ and how many of those by exit code; and the first
calls that differ; exits 1 on any difference, 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHOWN = 5  # differing calls printed

# Runs in a fresh interpreter: argv[1] the checkout, argv[2] the calls, argv[3] the results.
RUNNER = r"""
import contextlib, io, json, os, sys, traceback
checkout = sys.argv[1]
src = os.path.join(checkout, "src")
sys.path.insert(0, src)
from spectralpath import cli
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"spectralpath imported from {cli.__file__}, not from {src}")
with open(sys.argv[2], encoding="utf-8") as fh:
    calls = json.load(fh)
results = []
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc().replace(checkout, "<checkout>"))
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def degenerate_matrices() -> dict:
    """Symmetric matrices with repeated or nearly repeated eigenvalues, by file name."""
    star = np.zeros((30, 30))
    star[0, 1:] = star[1:, 0] = 1.0
    verts = np.arange(64)
    top, mid = 1 + 4.3e-8, 1 + 1.9e-8
    return {
        "complete-40": np.ones((40, 40)) - np.eye(40),
        "star-30": star,
        "cube-6": (np.bitwise_count(verts[:, None] ^ verts) == 1).astype(float),
        "skewed-diagonal": np.diag([top, mid, mid, mid, mid, 1.0]),
        "dyadic-diagonal": np.diag([2.0**18, 2.0**-8, 0.0]),
    }


def reach_paths() -> dict:
    """Bidirected paths whose end profiles sit near the constancy bound, by file name, with their ends."""
    import reach

    paths = {"loop-6-100": reach.loop_path(6, 100.0), "loop-10-10": reach.loop_path(10, 10.0),
             "kac-22": reach.kac(22), "kac-32": reach.kac(32),
             "shift-462": reach.random_instance("permuted_path", 3, 1) + 462.0 * np.eye(4),
             "wilkinson-15": reach.wilkinson(15)}
    return {name: (A, reach.path_ends(A)) for name, A in paths.items()}


def _write(folder: str, name: str, A) -> str:
    path = os.path.join(folder, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(A)}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in A.tolist()))
    return path


def write_calls(folder: str, seeds: list) -> tuple:
    """Every operation of every workload and seed, `analyze` on each fixed matrix, then `analyze` and `check
    --form path` at both ends of each reach path; without and with --json.  Also the number of each kind."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.dont_write_bytecode = True  # leave bench/ as it is
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    calls = []
    for seed in seeds:
        for name in names:
            for op in workloads.build(name, seed, os.path.join(folder, f"{name}-seed{seed}")):
                argv = [a for a in op.argv if a != "--json"]
                calls += [argv, argv + ["--json"]]
    counts = [len(calls)]
    for name, A in degenerate_matrices().items():
        path = _write(folder, name, A)
        calls += [["analyze", path], ["analyze", path, "--json"]]
    counts.append(len(calls) - sum(counts))
    for name, (A, (s, t)) in reach_paths().items():
        path = _write(folder, name, A)
        for argv in (["analyze", path], *(["check", path, "--form", "path", "--s", str(a), "--t", str(b)]
                                          for a, b in ((s, t), (t, s)))):
            calls += [argv, argv + ["--json"]]
    counts.append(len(calls) - sum(counts))
    return calls, counts


def run_checkout(checkout: str, calls_path: str, folder: str, tag: str) -> list:
    out_path = os.path.join(folder, f"results-{tag}.json")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", RUNNER, checkout, calls_path, out_path],
                   cwd=folder, env=env, check=True, timeout=1800)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    other = os.path.abspath(args.against)
    if not os.path.isfile(os.path.join(other, "src", "spectralpath", "cli.py")):
        sys.stderr.write(f"error: no spectralpath sources under {other}/src\n")
        return 2
    with tempfile.TemporaryDirectory() as folder:
        calls, counts = write_calls(folder, args.seeds)
        calls_path = os.path.join(folder, "calls.json")
        with open(calls_path, "w", encoding="utf-8") as fh:
            json.dump(calls, fh)
        ours = run_checkout(ROOT, calls_path, folder, "this")
        theirs = run_checkout(other, calls_path, folder, "against")
        differ = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
        groups = zip(("workload calls", "on fixed matrices", "on reach paths"), [0, *np.cumsum(counts)], counts)
        print(f"{len(calls)} calls compared, {len(differ)} differ: " + ", ".join(
            f"{sum(start <= i < start + n for i in differ)} of {n} {kind} "
            f"({sum(start <= i < start + n and ours[i][0] != theirs[i][0] for i in differ)} by exit code)"
            for kind, start, n in groups)
              + f" (this checkout {ROOT} against {other}, seeds {' '.join(map(str, args.seeds))})")
        for i in differ[:SHOWN]:
            print(f"  spectralpath {' '.join(calls[i]).replace(folder, '<inputs>')}")
            for field, a, b in zip(("exit code", "stdout", "stderr"), ours[i], theirs[i]):
                if a != b:
                    print(f"    {field}: {a!r:.200} against {b!r:.200}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
