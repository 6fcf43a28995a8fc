"""Spectral path structure toolkit.

Links two views of a square matrix with real spectrum:

* the combinatorial view, where the nonzero pattern forms a bidirected
  path (a relabeled irreducible tridiagonal matrix) or, more generally,
  a pattern of bounded lower bandwidth under some ordering, and
* the spectral view, where one entry position of the primitive spectral
  projectors, rescaled by eigenvalue gap products, is a nonzero constant.

Both views are evaluated independently and compared; the package also
applies the same machinery to symmetric association schemes to detect
P- and Q-polynomial orderings and to test the matching endpoint
conditions on eigenvalue tables.
"""

import importlib

__version__ = "0.1.0"

# The names the package root exports, by the module that defines them.  A
# module is imported when one of its names is first used (PEP 562), so a
# command loads only the modules it runs.
_EXPORTS = {
    "digraph": ("bidirected_path_endpoints", "gamma"),
    "equivalence": (
        "EquivalenceReport", "MatrixAnalysis", "NegativeEntryError", "analyze_matrix",
        "check_characterization", "clamp_nonnegative",
    ),
    "linalg": (
        "DEFAULT_TOL", "DegenerateSpectrumError", "ParseError", "SpectralIdentityError", "Tolerance",
        "read_matrix",
    ),
    "schemes": (
        "AssociationScheme", "PolyStructure", "SchemeCharacterizationReport", "SchemeEigendata",
        "SchemeValidationError", "builtin_scheme", "check_p_polynomial_characterization",
        "check_q_polynomial_characterization", "detect_p_polynomial", "detect_q_polynomial",
        "eigendata", "krein_parameters", "read_scheme", "scheme_from_p_tensor",
        "scheme_from_relations",
    ),
    "spectra": (
        "EntryProfile", "SpectralClass", "SpectralKind", "Spectrum", "classify",
    ),
    "symmetrize": ("NotSymmetrizable", "Symmetrizer", "find_symmetrizer"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
