"""The package's public surface, and the oracles that stay on the tests' side.

The cross-check oracles (Lanczos on the refinement measures, the forward
maps F_n and their leading coefficients, moments, sign alternation, the
per-word separation chain, Gauss rules, single branch values and basic
intervals, and the per-pair and per-triple checks) live in
tests/reference.py; nothing in the package calls them, so they must not
drift back into it.
"""

from dataclasses import fields

import pytest

import cantorpoly as cp
from cantorpoly import exact, geometry, jacobi, spacing

PUBLIC = [
    "BranchWord", "ConvergenceError", "CriticalSet", "DomainError", "GammaSequence",
    "Interval", "JacobiMatrix", "MapFamily", "RangeOverflowError", "ReportEntry",
    "SpacingReport", "ZeroSet",
    "branch_composition", "critical_set", "eigen_zero_sets", "eigen_zeros", "exact_zeros",
    "full_verification", "jacobi_for_gamma", "leftmost_length", "level_intervals",
    "min_spacing", "monic_opoly_exact", "set_distance", "spacing_report", "u_map",
    "verify_branch_lemma",
]

# verify_critical_bound is deleted, not moved: its bound held by construction
MOVED = ["refinement_measure", "stieltjes_lanczos", "_LANCZOS_BREAKDOWN", "moments",
         "sign_alternation_ok", "branch_separation_chain", "evaluate_F",
         "f", "lead", "subleading", "tau",
         "DiscreteMeasure", "gauss_measure", "opoly_eval",
         "branch_value", "basic_interval", "level_gaps",
         "interlacing_at_most_one", "verify_interlacing_bound", "verify_second_neighbor_bound",
         "verify_critical_bound"]


def test_all_names_the_public_surface():
    assert len(PUBLIC) == 27
    assert sorted(cp.__all__) == sorted(PUBLIC)
    for name in cp.__all__:
        assert getattr(cp, name) is not None


@pytest.mark.parametrize("owner", [cp, jacobi, spacing, exact, geometry, cp.MapFamily],
                         ids=["cantorpoly", "jacobi", "spacing", "exact", "geometry", "MapFamily"])
def test_oracles_live_outside_the_package(owner):
    assert [name for name in MOVED if hasattr(owner, name)] == []


def test_map_family_holds_only_gamma():
    assert [f.name for f in fields(cp.MapFamily)] == ["gamma"]
    assert [name for name in vars(cp.MapFamily) if not name.startswith("_")] == []
