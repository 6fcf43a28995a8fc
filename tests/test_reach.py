"""The reach ledger (`tools/reach.py`) as tests: exit 3 only where the answer is out of numerical reach.

The battery tally pins today's counts at the seeds of the exact oracle
(0-15) and at the hundred past them as bounds, so a change that loses reach fails here and one that gains it
tightens them.  Each named family must give its exact answer or exit 3 on
every member, and reach at least as far as today.  Targets still out of
reach are strict xfails that name the direction of the roadmap that would
reach them.
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import reach  # noqa: E402

_P = "direction P of ROADMAP"
_A = "direction A of ROADMAP"
_J = "direction J of ROADMAP"
_ZJ = "directions Z and J of ROADMAP"


@pytest.fixture(scope="module")
def named(tmp_path_factory):
    """{family: {parameter: member outcome}} over every named family, run once."""
    folder = tmp_path_factory.mktemp("reach")
    return {name: {p: reach.reached(reach.member(A, ends, folder)) for p, A, ends in members}
            for name, members in reach.named_families().items()}


def test_battery_tally_stays_within_its_bounds(tmp_path):
    total = reach.totals(reach.tally(reach.battery(range(16), tmp_path)))
    # (exit 0 or exact, exit 3, wrong) at the positions where both sides hold, and per instance for analyze
    assert {column: (c["0"], c["3"], c["wrong"]) for column, c in total.items()} == {
        "path": (124, 16, 0), "distance": (165, 17, 1), "analyze": (318, 10, 8)}


def test_battery_tally_past_the_oracle_seeds_stays_within_its_bounds(tmp_path):
    # the same tally at seeds 16-115, which the exact oracle's tests do not draw (about 6 s)
    total = reach.totals(reach.tally(reach.battery(range(16, 116), tmp_path)))
    assert {column: (c["0"], c["3"], c["wrong"]) for column, c in total.items()} == {
        "path": (820, 60, 0), "distance": (1004, 67, 4), "analyze": (2002, 42, 56)}


@pytest.mark.parametrize("family", list(reach.named_families()))
def test_named_family_gives_its_answer_or_exits_three(named, family):
    assert [p for p, outcome in named[family].items() if outcome not in ("0", "3")] == []


# Members that exit 0 today, per family: at least these must keep reaching.
REACHED = {
    "kac": range(2, 41),
    "wilkinson": range(7, 16, 2),
    "loop": [(6, 100.0), (10, 10.0)],
    "shift": [(c, seed) for c in (10.0, 100.0, 1e3, 1e4, 1e5) for seed in range(5) if (c, seed) != (1e5, 0)],
    "scale": [1e-8, 1e-4, 1.0, 1e5, 1e10, 1e15, 1e20, 1e25],
    "unfiltered": [(12, seed) for seed in range(100, 130)]
    + [(20, seed) for seed in range(100, 130) if seed not in (114, 119)]
    + [(30, seed) for seed in (100, 106, 107, 117, 121, 122, 129)],
}


@pytest.mark.parametrize("family", list(REACHED))
def test_named_family_keeps_its_reach(named, family):
    assert [p for p in REACHED[family] if named[family][p] != "0"] == []


def _target(family, members, direction=None, why=""):
    marks = [pytest.mark.xfail(strict=True, reason=f"{why}; {direction}")] if direction else []
    return pytest.param(family, members, id=f"{family}-{members[0]}-{members[-1]}", marks=marks)


@pytest.mark.parametrize("family, members", [
    _target("wilkinson", [17, 19], _A, "W+ is multiplicity-free at orders 17 and 19, but its end profiles spread "
            "by 3.2e-6 and 9.8e-5 of their value, above residual_tol"),
    _target("wilkinson", list(range(21, 32, 2)), _P, "eigh cannot split W+'s closest pairs (7e-14 at order 21) "
            "above twice the Weyl unit, so check and analyze exit 3 with diagonalizable_not_mf; a symmetrized "
            "path's spectrum is simple by theorem"),
    _target("shift", [(1e5, 0)], _J, "the order-8 path plus 1e5 I exits 3: shifting first would keep its profile"),
    _target("scale", [1e-20, 1e-15, 1e-11, 1e-10], _ZJ, "the gap products underflow eig_tol^d, an absolute bound "
            "that also keeps a path scaled into zero_tol at exit 3 until the zero test is scale-free"),
    _target("scale", [1e30], _ZJ, "the gap products overflow the float range; the spectrum of 2^-e A would not"),
    _target("unfiltered", [(20, 114), (20, 119)], _A, "a relative spread above residual_tol at the ends"),
    *(_target("unfiltered", [(30, seed)], _A, "exit 0 in one direction under the bound residual_tol * max|A|^d, "
              "exit 3 under the relative bound") for seed in (104, 110)),
    _target("unfiltered", [(30, seed) for seed in range(100, 130)], _A,
            "23 of 30 order-30 paths exit 3: a fixed relative bound is too tight at this order"),
    _target("unfiltered", [(40, seed) for seed in range(100, 130)], _A,
            "every order-40 path exits 3, with relative spreads near 5e-2 at the ends"),
])
def test_named_target_exits_zero(named, family, members):
    assert [p for p in members if named[family][p] != "0"] == []


def test_kac_end_value_is_n_factorial(tmp_path):
    for n in range(2, 41):
        code, out = reach._run(["analyze", reach._write(reach.kac(n).tolist(), tmp_path), "--json"])
        assert code == 0, n
        listed = {(p["s"], p["t"]): p["value"] for p in json.loads(out)["result"]["constant_profile_positions"]}
        assert listed.keys() == {(0, n), (n, 0)}
        assert all(v == pytest.approx(math.factorial(n), rel=1e-11) for v in listed.values()), (n, listed)
