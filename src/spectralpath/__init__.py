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

from .digraph import (
    OrderingVerificationError,
    bidirected_path_endpoints,
    directed_distance,
    gamma,
    hessenberg_ordering,
    is_hessenberg,
    is_irreducible_tridiagonal,
)
from .equivalence import (
    INSTANCE_KINDS,
    EquivalenceReport,
    MatrixAnalysis,
    NegativeEntryError,
    analyze_matrix,
    check_distance_characterization,
    check_path_characterization,
    clamp_nonnegative,
    random_instance,
)
from .linalg import (
    DEFAULT_TOL,
    ParseError,
    Tolerance,
    read_matrix,
    write_matrix,
)
from .schemes import (
    AssociationScheme,
    PolyStructure,
    SchemeCharacterizationReport,
    SchemeEigendata,
    SchemeValidationError,
    builtin_scheme,
    check_p_polynomial_characterization,
    check_q_polynomial_characterization,
    detect_p_polynomial,
    detect_q_polynomial,
    eigendata,
    intersection_matrix,
    krein_parameters,
    read_scheme,
    scheme_from_p_tensor,
    scheme_from_relations,
    write_scheme,
)
from .spectra import (
    DegenerateSpectrumError,
    EntryProfile,
    MultiplicityFreeRequiredError,
    SpectralClass,
    SpectralIdentityError,
    SpectralKind,
    Spectrum,
    classify,
    constant_profile_positions,
    entry_product_profile,
    gap_product,
)
from .symmetrize import (
    NotSymmetrizable,
    Symmetrizer,
    find_symmetrizer,
    tridiagonal_symmetrizer,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme",
    "DEFAULT_TOL",
    "DegenerateSpectrumError",
    "EntryProfile",
    "EquivalenceReport",
    "INSTANCE_KINDS",
    "MatrixAnalysis",
    "MultiplicityFreeRequiredError",
    "NegativeEntryError",
    "NotSymmetrizable",
    "OrderingVerificationError",
    "ParseError",
    "PolyStructure",
    "SchemeCharacterizationReport",
    "SchemeEigendata",
    "SchemeValidationError",
    "SpectralClass",
    "SpectralIdentityError",
    "SpectralKind",
    "Spectrum",
    "Symmetrizer",
    "Tolerance",
    "analyze_matrix",
    "bidirected_path_endpoints",
    "builtin_scheme",
    "check_distance_characterization",
    "check_p_polynomial_characterization",
    "check_path_characterization",
    "check_q_polynomial_characterization",
    "clamp_nonnegative",
    "classify",
    "constant_profile_positions",
    "detect_p_polynomial",
    "detect_q_polynomial",
    "directed_distance",
    "eigendata",
    "entry_product_profile",
    "find_symmetrizer",
    "gamma",
    "gap_product",
    "hessenberg_ordering",
    "intersection_matrix",
    "is_hessenberg",
    "is_irreducible_tridiagonal",
    "krein_parameters",
    "random_instance",
    "read_matrix",
    "read_scheme",
    "scheme_from_p_tensor",
    "scheme_from_relations",
    "tridiagonal_symmetrizer",
    "write_matrix",
    "write_scheme",
]
