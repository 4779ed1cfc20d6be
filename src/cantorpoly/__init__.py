"""Orthogonal polynomials and zero spacing on quadratically generated Cantor sets."""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import (
    CriticalSet,
    MapFamily,
    ZeroSet,
    exact_zeros,
    monic_opoly_exact,
)
from .geometry import (
    GammaSequence,
    leftmost_length,
    level_intervals,
    u_map,
)
from .jacobi import (
    JacobiMatrix,
    eigen_zero_sets,
    jacobi_for_gamma,
)
from .spacing import (
    ReportEntry,
    SpacingReport,
    full_verification,
    min_spacing,
    set_distance,
    spacing_report,
    verify_branch_lemma,
)

__all__ = [
    "ConvergenceError",
    "CriticalSet",
    "DomainError",
    "GammaSequence",
    "JacobiMatrix",
    "MapFamily",
    "RangeOverflowError",
    "ReportEntry",
    "SpacingReport",
    "ZeroSet",
    "eigen_zero_sets",
    "exact_zeros",
    "full_verification",
    "jacobi_for_gamma",
    "leftmost_length",
    "level_intervals",
    "min_spacing",
    "monic_opoly_exact",
    "set_distance",
    "spacing_report",
    "u_map",
    "verify_branch_lemma",
]
