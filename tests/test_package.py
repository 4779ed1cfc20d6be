"""The package's public surface, and the oracles that stay on the tests' side.

The cross-check oracles (Lanczos on the refinement measures, the forward
maps F_n and their leading coefficients, moments, sign alternation, the
per-word separation chain, Gauss rules, the scalar branch composition,
single branch values and basic intervals, the per-pair and per-triple
checks, one degree's eigensolve and one level's critical set) live in
tests/reference.py; nothing in the package calls them, so they must not
drift back into it.
"""

from dataclasses import fields

import pytest

import cantorpoly as cp
from cantorpoly import exact, geometry, jacobi, spacing

PUBLIC = [
    "ConvergenceError", "CriticalSet", "DomainError", "GammaSequence",
    "JacobiMatrix", "MapFamily", "RangeOverflowError", "ReportEntry",
    "SpacingReport", "ZeroSet",
    "eigen_zero_sets", "exact_zeros",
    "full_verification", "jacobi_for_gamma", "leftmost_length", "level_intervals",
    "min_spacing", "monic_opoly_exact", "set_distance", "spacing_report", "u_map",
    "verify_branch_lemma",
]

# deleted, not moved: verify_critical_bound, whose bound held by construction, and
# BranchWord and Interval, which the letter strings and [lo, hi] rows replace
MOVED = ["refinement_measure", "stieltjes_lanczos", "_LANCZOS_BREAKDOWN", "moments",
         "sign_alternation_ok", "branch_separation_chain", "evaluate_F",
         "f", "lead", "subleading", "tau",
         "DiscreteMeasure", "gauss_measure", "opoly_eval",
         "branch_value", "basic_interval", "level_gaps",
         "interlacing_at_most_one", "verify_interlacing_bound", "verify_second_neighbor_bound",
         "verify_critical_bound",
         "BranchWord", "Interval", "branch_composition", "eigen_zeros", "critical_set"]


def test_all_names_the_public_surface():
    assert len(PUBLIC) == 22
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


def test_branch_order_is_defined_once():
    # the placement of a branch table lives next to the table, in geometry
    assert exact.branch_order is jacobi.branch_order is geometry.branch_order
    assert geometry.branch_order.__module__ == "cantorpoly.geometry"
