"""The reach ledger: how often `check` and `analyze` answer "out of reach" (exit 3) where the answer is known.

Usage (from the root of a checkout):

    python3 tools/reach.py --seeds 0 15 --named --record this.json
    PYTHONPATH=<other checkout>/src python3 tools/reach.py --seeds 0 15 --named --record other.json
    python3 tools/reach.py --moves other.json this.json

The package is imported from PYTHONPATH when it names one, else from this
checkout's `src/`, so one ledger measures any checkout.  Two parts:

* The battery of `tests/test_exact_oracle.py` at the seeds from `--seeds`
  (first and last, inclusive).  Per family and weight set, at every
  position where both sides exactly hold, `check` in each form exits 0, 3
  or wrongly; `analyze` per instance gives the exact kind, multiplicities
  and constant positions, exits 3, or is wrong.
* With `--named`, families whose answers are known in closed form, each a
  bidirected path with positive arcs (so a simple spectrum, and a nonzero
  constant profile exactly at its two ends): Kac-Sylvester, Wilkinson's W+,
  the unit path with one heavy loop, order-8 permuted paths plus c I, the
  unit 12-path scaled by alpha, and unfiltered seeded permuted paths.  A
  member reaches its answer when `check --form path` at both ends exits 0
  and `analyze` lists exactly the ends; it is wrong when any call exits 0
  or 1 against the answer.

`--record` writes every call's outcome; `--moves` lists the calls whose
outcome differs between two records, grouped by move.
"""

import argparse
import json
import os
import sys
import tempfile
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.append(os.path.join(ROOT, "src"))  # after PYTHONPATH, which may name another checkout
sys.dont_write_bytecode = True  # leave tests/ as it is

from suites import random_instance  # noqa: E402
from test_exact_oracle import EXIT_NUMERICAL, FAMILIES, MF, WEIGHTS, _run, draw, exact_verdicts  # noqa: E402

FORMS = ("path", "distance")


def _write(A, folder) -> str:
    path = os.path.join(str(folder), "matrix.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(A)}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in A))
    return path


def _analyze(path, kind, multiplicities, positions) -> str:
    """"exact", "3", or "wrong: ..." naming what `analyze` reported."""
    code, out = _run(["analyze", path, "--json"])
    if code == EXIT_NUMERICAL:
        return "3"
    if code == 0:
        result = json.loads(out)["result"]
        got = (result["spectral_kind"], sorted(m for _, m in result["eigenvalues"]),
               sorted((p["s"], p["t"]) for p in result["constant_profile_positions"]))
        if got == (kind, multiplicities, sorted(positions)):
            return "exact"
        return f"wrong: {got}"
    return f"wrong: exit {code}"


def _check(path, form, s, t) -> str:
    """The exit code of `check` at a position where both sides hold: "0", "3", or "wrong: exit N"."""
    code, _ = _run(["check", path, "--form", form, "--s", str(s), "--t", str(t)])
    return str(code) if code in (0, EXIT_NUMERICAL) else f"wrong: exit {code}"


def battery(seeds, folder) -> dict:
    """{case id: {call: outcome}} over the oracle's families and weight sets at `seeds`."""
    outcomes = {}
    for weights in WEIGHTS:
        for family in FAMILIES:
            for seed in seeds:
                A = draw(family, weights, seed)
                kind, multiplicities, positions, codes = exact_verdicts(A)
                path = _write(A, folder)
                calls = {f"check --form {form} --s {s} --t {t}": _check(path, form, s, t)
                         for (form, s, t), code in codes.items() if code == 0}
                calls["analyze"] = _analyze(path, kind, multiplicities, positions)
                outcomes[f"{family}-{weights}-{seed}"] = calls
    return outcomes


def _label(outcome) -> str:
    return "wrong" if outcome.startswith("wrong") else "0" if outcome == "exact" else outcome


def tally(outcomes) -> dict:
    """{(family, weights): {"path" | "distance" | "analyze": Counter of "0", "3" and "wrong"}}; "0" is exact."""
    rows = {}
    for case, calls in outcomes.items():
        family, weights, _ = case.rsplit("-", 2)
        row = rows.setdefault((family, weights), {column: Counter() for column in (*FORMS, "analyze")})
        for call, outcome in calls.items():
            row["analyze" if call == "analyze" else call.split()[2]][_label(outcome)] += 1
    return rows


def totals(rows) -> dict:
    return {column: sum((row[column] for row in rows.values()), Counter()) for column in (*FORMS, "analyze")}


def _cells(row) -> str:
    return "".join(f"{row[c]['0']:>5} {row[c]['3']:>3} {row[c]['wrong']:>3} / {sum(row[c].values()):<4}"
                   for c in (*FORMS, "analyze"))


def print_tally(rows, title):
    print(f"{title:<28}{'path 0/3/wrong':<20}{'distance 0/3/wrong':<20}analyze exact/3/wrong")
    for (family, weights), row in rows.items():
        print(f"  {family + ' ' + weights:<26}{_cells(row)}")
    print(f"  {'total':<26}{_cells(totals(rows))}")


# ---- named families: (parameter, matrix, (s, t)) with (s, t) the ends of the path


def _path(diagonal, forward, backward) -> np.ndarray:
    return np.diag(np.asarray(diagonal, dtype=float)) + np.diag(forward, 1) + np.diag(backward, -1)


def path_ends(A) -> tuple:
    """The ends of a bidirected path pattern: the two vertices with one neighbour, in increasing order."""
    off = (A != 0.0) & ~np.eye(len(A), dtype=bool)
    ends = np.flatnonzero(off.sum(axis=1) == 1)
    return int(ends[0]), int(ends[-1])


def kac(n):
    """Kac-Sylvester of order n + 1: arcs i + 1 forward and n - i back, eigenvalues -n, -n + 2, ..., n, end value n!."""
    return _path(np.zeros(n + 1), np.arange(1.0, n + 1), np.arange(float(n), 0.0, -1.0))


def wilkinson(order):
    """W+ of odd order 2m + 1: diagonal |i - m| and unit arcs; its closest eigenvalue pairs nearly coincide."""
    m = order // 2
    return _path(np.abs(np.arange(order) - m), np.ones(order - 1), np.ones(order - 1))


def loop_path(n, weight):
    """The unit path on n vertices with a loop of `weight` at vertex 0."""
    A = _path(np.zeros(n), np.ones(n - 1), np.ones(n - 1))
    A[0, 0] = weight
    return A


def named_families() -> dict:
    """{family: [(parameter, A, (s, t))]} for the families whose answers are known in closed form."""
    unit12 = _path(np.zeros(12), np.ones(11), np.ones(11))
    families = {
        "kac": [(n, kac(n)) for n in range(2, 41)],
        "wilkinson": [(order, wilkinson(order)) for order in range(7, 32, 2)],
        "loop": [((6, 100.0), loop_path(6, 100.0)), ((10, 10.0), loop_path(10, 10.0))],
        "shift": [((c, seed), random_instance("permuted_path", 7, seed) + c * np.eye(8))
                  for c in (10.0, 100.0, 1e3, 1e4, 1e5) for seed in range(5)],
        "scale": [(alpha, alpha * unit12) for alpha in
                  (1e-20, 1e-15, 1e-11, 1e-10, 1e-8, 1e-4, 1.0, 1e5, 1e10, 1e15, 1e20, 1e25, 1e30)],
        "unfiltered": [((n, seed), random_instance("permuted_path", n - 1, seed))
                       for n in (12, 20, 30, 40) for seed in range(100, 130)],
    }
    return {name: [(p, A, path_ends(A)) for p, A in members] for name, members in families.items()}


def member(A, ends, folder) -> dict:
    """{call: outcome} for `check --form path` at both ends of the path A and `analyze`."""
    path = _write(A.tolist(), folder)
    s, t = ends
    calls = {f"check --form path --s {a} --t {b}": _check(path, "path", a, b) for a, b in ((s, t), (t, s))}
    calls["analyze"] = _analyze(path, MF, [1] * len(A), {(s, t), (t, s)})
    return calls


def reached(calls) -> str:
    """A member's outcome: "wrong" if any call is, else "0" when every call is exact, else "3"."""
    labels = {_label(outcome) for outcome in calls.values()}
    return "wrong" if "wrong" in labels else "0" if labels == {"0"} else "3"


def named(folder) -> dict:
    """{family-parameter id: {call: outcome}} over `named_families()`."""
    return {f"{name}-{p}": member(A, ends, folder)
            for name, members in named_families().items() for p, A, ends in members}


def print_named(outcomes):
    by_family = {}
    for key, calls in outcomes.items():
        name, p = key.split("-", 1)
        by_family.setdefault(name, {}).setdefault(reached(calls), []).append(p)
    for name, groups in by_family.items():
        print(f"{name:<12}" + "   ".join(f"{label}: {len(ps)} [{', '.join(ps)}]"
                                         for label, ps in sorted(groups.items())))


def moves(old, new):
    """Print every call whose outcome differs between two records, grouped by move."""
    grouped = {}
    for case in sorted(old.keys() | new.keys()):
        a, b = old.get(case, {}), new.get(case, {})
        for call in sorted(a.keys() | b.keys()):
            if a.get(call) != b.get(call):
                grouped.setdefault((_label(a.get(call, "absent")), _label(b.get(call, "absent"))), []).append(
                    f"{case}: {call}: {a.get(call)} -> {b.get(call)}")
    for (x, y), lines in sorted(grouped.items()):
        print(f"{x} -> {y}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    if not grouped:
        print("no outcome moved")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), help="battery seeds, inclusive")
    parser.add_argument("--named", action="store_true", help="also run the named families")
    parser.add_argument("--record", help="write every call's outcome to this JSON file")
    parser.add_argument("--moves", nargs=2, metavar=("OLD", "NEW"), help="compare two records and exit")
    args = parser.parse_args()
    if args.moves:
        records = []
        for path in args.moves:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh)["calls"])
        moves(*records)
        return 0
    import spectralpath

    print(f"spectralpath from {os.path.dirname(spectralpath.__file__)}")
    record = {}
    with tempfile.TemporaryDirectory() as folder:
        if args.seeds:
            first, last = args.seeds
            outcomes = battery(range(first, last + 1), folder)
            print_tally(tally(outcomes), f"seeds {first}-{last}")
            record.update(outcomes)
        if args.named:
            outcomes = named(folder)
            print_named(outcomes)
            record.update(outcomes)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"calls": record}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
