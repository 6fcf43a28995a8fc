"""Command-line interface.

Commands: `analyze` (structure and spectrum of a matrix file), `check`
(path- or distance-form equivalence at one entry position) and `scheme`
(association scheme info, polynomial detection, endpoint checks).

Exit codes: 0 the check passed or the verdict is true, 1 the verdict is
false, 2 malformed input, 3 a numerical identity or property failed.
Output is deterministic for fixed inputs and flags; `--json` emits
full-precision machine-readable reports, the default rendering rounds to
six significant digits.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import re
import sys
import types

import numpy as np

# Each command's own modules (equivalence, spectra and symmetrize; schemes)
# and argparse are imported in the functions that use them, so a command
# loads only its own.
from .linalg import DEFAULT_TOL, Tolerance, read_matrix

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Every package error subclasses one of these bases.  Numerical failures are
# checked first because numpy's LinAlgError subclasses ValueError.
_NUMERICAL_ERRORS = (np.linalg.LinAlgError, RuntimeError)
_INPUT_ERRORS = (ValueError, OSError)


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _fmt_matrix(M, indent="  ") -> str:
    return "\n".join(indent + "  ".join(f"{x:>10.6g}" for x in row) for row in np.asarray(M))


def _json_default(obj):
    """Encode what `json` does not: arrays, numpy scalars, enums and the package's dataclasses.

    A dataclass encodes as vars(obj), its fields, rather than through
    dataclasses.asdict, whose fields() builds a tuple from a generator on
    every call (see digraph._out_lists); `json` calls this hook again for
    the fields it cannot encode itself.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(report: dict, as_json: bool, human_lines):
    """Print `report` as JSON, or else the lines of `human_lines`.

    Commands pass a generator, so the human text is formatted only when it
    is printed.
    """
    if as_json:
        print(json.dumps(report, sort_keys=True, default=_json_default))
    else:
        for line in human_lines:
            print(line)


def _tol_from_args(args) -> Tolerance:
    return Tolerance(
        zero_tol=args.zero_tol, eig_tol=args.eig_tol, residual_tol=args.residual_tol
    )


def _verdict(side_i: bool, side_ii: bool):
    """Verdict text and exit code of a two-sided check."""
    if side_i and side_ii:
        return "both sides hold", EXIT_TRUE
    if not side_i and not side_ii:
        return "both sides fail", EXIT_FALSE
    return "sides disagree: numerical inconsistency", EXIT_NUMERICAL


def _cmd_analyze(args) -> int:
    from .equivalence import analyze_matrix
    from .spectra import SpectralKind
    from .symmetrize import Symmetrizer

    tol = _tol_from_args(args)
    A = read_matrix(args.matrix)
    analysis = analyze_matrix(A, tol)
    n = len(analysis.A)
    arc_count = int(analysis.pattern.sum())
    sym = analysis.symmetrizer
    spectral = analysis.spectral

    positions = analysis.constant_positions()
    constant_positions = [{"s": s, "t": t, "value": v} for s, t, v in positions]
    # the distance form at every position: the pairs at distance n - 1 must be the nonzero constants
    far = analysis.far_pairs()
    differ = sorted(set(far).symmetric_difference([(s, t) for s, t, _ in positions]))
    verdict, code = f"order-{n} matrix classified {spectral.kind.value}", EXIT_TRUE
    if differ:
        (s, t), code = differ[0], EXIT_NUMERICAL
        verdict = (f"sides disagree at ({s}, {t}): pattern side {(s, t) in far}, "
                   f"spectral side {(s, t) not in far}: numerical inconsistency")

    report = {
        "command": "analyze",
        "tolerances": tol,
        "result": {
            "order": n,
            "arc_count": arc_count,
            "path_order": list(analysis.path_order) if analysis.path_order else None,
            "spectral_kind": spectral.kind.value,
            "eigenvalues": [[v, m] for v, m in spectral.eigenvalues],
            "symmetrizable": isinstance(sym, Symmetrizer),
            "kappa": sym.kappa if isinstance(sym, Symmetrizer) else None,
            "not_symmetrizable": None if isinstance(sym, Symmetrizer) else sym,
            "constant_profile_positions": constant_positions,
        },
        "verdict": verdict,
    }

    def lines():
        yield f"order: {n}   arcs: {arc_count}"
        yield f"path order: {' -> '.join(map(str, analysis.path_order)) if analysis.path_order else 'not a bidirected path'}"
        yield f"spectral class: {spectral.kind.value}"
        yield "eigenvalues: " + ", ".join(f"{_fmt(v)} (x{m})" for v, m in spectral.eigenvalues)
        if isinstance(sym, Symmetrizer):
            yield f"symmetrizer weights: {_fmt_vec(sym.kappa)}"
        else:
            yield f"not symmetrizable: {sym.reason} at {sym.witness}"
        if spectral.kind is SpectralKind.MULTIPLICITY_FREE:
            for item in constant_positions:
                yield f"constant profile at ({item['s']}, {item['t']}): {_fmt(item['value'])}"
            if not constant_positions:
                yield "constant profile positions: none"
        if differ:
            yield f"verdict: {verdict}"

    _emit(report, args.json, lines())
    return code


def _cmd_check(args) -> int:
    from .equivalence import analyze_matrix, check_characterization

    tol = _tol_from_args(args)
    analysis = analyze_matrix(read_matrix(args.matrix), tol)
    rep = check_characterization(analysis, args.form, args.s, args.t)
    profile = rep.profile
    verdict, code = _verdict(rep.condition_i, rep.condition_ii)
    report = {
        "command": "check",
        "tolerances": tol,
        "result": {**vars(rep), "equivalent": rep.equivalent},
        "verdict": verdict,
    }

    def lines():
        yield f"form: {rep.form}   position: ({rep.s}, {rep.t})"
        yield f"pattern side: {rep.condition_i}   spectral side: {rep.condition_ii}"
        yield f"spectral class: {rep.spectral_kind.value}   distance: {rep.distance}"
        if profile is not None:
            yield f"profile: {_fmt_vec(profile.values)}" + (
                f" constant {_fmt(profile.common_value)}"
                if profile.common_value is not None
                else " (not a nonzero constant)"
            )
        yield f"verdict: {verdict}"

    _emit(report, args.json, lines())
    return code


_BUILTIN_RE = re.compile(r"^builtin:(\w+)\((\d+)\)$")  # builtin_scheme names the families


def _load_scheme(source: str):
    from . import schemes

    match = _BUILTIN_RE.match(source)
    if match:
        return schemes.builtin_scheme(match.group(1), int(match.group(2)))
    return schemes.read_scheme(source)


def _report_structures(args, kind: str, scheme, structures, tol: Tolerance) -> int:
    """Emit the detected P- or Q-polynomial structures; `kind` is "p" or "q"."""
    name = f"{kind.upper()}-polynomial"
    payload = [st._asdict() for st in structures]
    verdict = f"{len(structures)} {name} structure(s)" if structures else f"no {name} structure"
    report = {
        "command": f"scheme {kind}-poly",
        "tolerances": tol,
        "result": {"size": scheme.size, "d": scheme.d, "structures": payload},
        "verdict": verdict,
    }

    def lines():
        yield f"|X| = {scheme.size}   d = {scheme.d}"
        for st in structures:
            yield (
                f"{name}: generator {st.generator}, ordering "
                f"{' -> '.join(map(str, st.ordering))}, last {st.last}"
            )
        yield f"verdict: {verdict}"

    _emit(report, args.json, lines())
    return EXIT_TRUE if structures else EXIT_FALSE


def _cmd_scheme(args) -> int:
    from . import schemes

    tol = _tol_from_args(args)
    scheme = _load_scheme(args.source)
    action = args.action
    extra = args.indices

    if action in ("p-check", "q-check"):
        if len(extra) != 2:
            raise ValueError(f"{action} expects two indices, got {extra}")
    elif extra:
        raise ValueError(f"{action} takes no indices, got {extra}")

    if action == "p-poly":
        return _report_structures(args, "p", scheme, schemes.detect_p_polynomial(scheme, tol), tol)

    ed = schemes.eigendata(scheme, tol)

    if action == "info":
        kmin = float(np.min(ed.q))
        kmax = float(np.max(ed.q))
        report = {
            "command": "scheme info",
            "tolerances": tol,
            "result": {
                "size": scheme.size,
                "d": scheme.d,
                "valencies": scheme.k,
                "multiplicities": ed.m,
                "P": ed.P,
                "Q": ed.Q,
                "krein_min": kmin,
                "krein_max": kmax,
                "residuals": ed.residuals,
            },
            "verdict": f"scheme on {scheme.size} points with {scheme.d} classes",
        }

        def lines():
            yield f"|X| = {scheme.size}   d = {scheme.d}"
            yield f"valencies k: {_fmt_vec(scheme.k)}"
            yield f"multiplicities m: {_fmt_vec(ed.m)}"
            yield "P:"
            yield _fmt_matrix(ed.P)
            yield "Q:"
            yield _fmt_matrix(ed.Q)
            yield f"Krein parameter range: [{_fmt(kmin)}, {_fmt(kmax)}]"

        _emit(report, args.json, lines())
        return EXIT_TRUE

    if action == "q-poly":
        return _report_structures(args, "q", scheme, schemes.detect_q_polynomial(ed), tol)

    b, c = int(extra[0]), int(extra[1])
    rep = schemes.check_scheme_characterization(ed, action[0], b, c)
    verdict, code = _verdict(rep.side_i, rep.side_ii)
    report = {
        "command": f"scheme {action}",
        "tolerances": tol,
        "result": {**vars(rep), "equivalent": rep.equivalent},
        "verdict": verdict,
    }

    def lines():
        yield f"{action} generator {b} last {c}"
        yield f"structure side: {rep.side_i}   eigenvalue side: {rep.side_ii}"
        yield f"eigenvalue column: {_fmt_vec(rep.theta)}"
        if rep.expected is not None:
            yield f"expected ratios: {_fmt_vec(rep.expected)}"
            yield f"actual column:   {_fmt_vec(rep.actual)}"
            yield f"max deviation: {_fmt(rep.max_deviation)}"
        yield f"verdict: {verdict}"

    _emit(report, args.json, lines())
    return code


# One table for build_parser and _fast_args: per command, its handler, help
# and arguments as (flag, add_argument keywords), positionals first.
_COMMON = (
    ("--zero-tol", {"type": float, "default": DEFAULT_TOL.zero_tol, "help": "structural zero threshold"}),
    ("--eig-tol", {"type": float, "default": DEFAULT_TOL.eig_tol, "help": "eig-route disk floor and gap bounds"}),
    ("--residual-tol", {
        "type": float, "default": DEFAULT_TOL.residual_tol, "help": "verified identity residual bound"}),
    ("--json", {"action": "store_true", "default": False, "help": "emit a full-precision JSON report"}),
)
_COMMANDS = {
    "analyze": (_cmd_analyze, "analyze a matrix file", (
        ("matrix", {"help": "matrix file (first line order n, then n rows)"}),
    ) + _COMMON),
    "check": (_cmd_check, "two-sided equivalence check at one position", (
        ("matrix", {}),
        ("--form", {"choices": ("path", "distance"), "required": True}),
        ("--s", {"type": int, "required": True}),
        ("--t", {"type": int, "required": True}),
    ) + _COMMON),
    "scheme": (_cmd_scheme, "association scheme operations", (
        ("source", {"help": "scheme file or builtin:<name>(<n>)"}),
        ("action", {"choices": ("info", "p-poly", "q-poly", "p-check", "q-check")}),
        ("indices", {"nargs": "*", "type": int, "help": "generator and last index for *-check"}),
    ) + _COMMON),
}


@functools.cache
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="spectralpath",
        description="Structure checks linking matrix nonzero patterns to spectral projector profiles.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in arguments:
            command.add_argument(flag, **spec)
        command.set_defaults(func=func)
    return parser


# _COMMANDS as _fast_args reads it, built once: handler, switches, (flag, dest, converter, spec).
_ARGV_TABLE = {
    name: (
        func,
        {flag: spec.get("action") == "store_true" for flag, spec in arguments  # argparse takes other actions
         if flag[0] == "-" and spec.get("action") in (None, "store_true")},
        tuple((flag, flag.lstrip("-").replace("-", "_"),
               spec.get("type", bool if spec.get("action") == "store_true" else str), spec)
              for flag, spec in arguments),
    )
    for name, (func, _, arguments) in _COMMANDS.items()
}


def _fast_args(argv: list):
    """The attributes argparse would parse from a plain argv, or None to leave it to argparse.

    Plain: the command, its positionals, then options in full, each once and
    with its own value (switches aside); no token empty or starting with '-'
    but the options; every type, choices and required rule met.
    """
    if not argv or argv[0] not in _ARGV_TABLE:
        return None
    func, switches, arguments = _ARGV_TABLE[argv[0]]
    plain = [tok[:1] not in ("-", "") for tok in argv] + [False]
    pos = plain.index(False)
    tokens, given = argv[1:pos], {}
    while pos < len(argv):
        flag = argv[pos]
        switch = switches.get(flag)
        if plain[pos] or switch is None or flag in given or not (switch or plain[pos + 1]):
            return None
        given[flag], pos = (True, pos + 1) if switch else (argv[pos + 1], pos + 2)
    values = {"cmd": argv[0], "func": func}
    for flag, dest, convert, spec in arguments:  # positionals first, in order; a starred one takes the rest
        if spec.get("nargs") == "*":
            text, tokens = tokens, []
        elif flag[0] != "-" and tokens:
            text, tokens = tokens[0], tokens[1:]
        elif flag in given:
            text = given[flag]
        elif flag[0] != "-" or spec.get("required"):
            return None
        else:
            values[dest] = spec.get("default")
            continue
        try:
            value = list(map(convert, text)) if isinstance(text, list) else convert(text)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return None if tokens else types.SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _fast_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main():  # entry point wrapper
    sys.exit(main())
