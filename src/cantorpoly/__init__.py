"""Orthogonal polynomials and zero spacing on quadratically generated Cantor sets."""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import (
    CriticalSet,
    MapFamily,
    ZeroSet,
    critical_set,
    exact_zeros,
    monic_opoly_exact,
)
from .geometry import (
    BranchWord,
    GammaSequence,
    Interval,
    branch_composition,
    leftmost_length,
    level_intervals,
    u_map,
)
from .jacobi import (
    JacobiMatrix,
    eigen_zero_sets,
    eigen_zeros,
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
    "BranchWord",
    "ConvergenceError",
    "CriticalSet",
    "DomainError",
    "GammaSequence",
    "Interval",
    "JacobiMatrix",
    "MapFamily",
    "RangeOverflowError",
    "ReportEntry",
    "SpacingReport",
    "ZeroSet",
    "branch_composition",
    "critical_set",
    "eigen_zero_sets",
    "eigen_zeros",
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
