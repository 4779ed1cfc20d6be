"""Spacing quantities, bound verification, and report assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cantorpoly as cp
from cantorpoly import spacing
from cantorpoly.errors import DomainError
from cantorpoly.spacing import (
    SpacingRow,
    branch_separation_chain,
    full_verification,
    spacing_for_degree,
)

from conftest import chebyshev_min_gap, chebyshev_zeros_unit

PI_SQ_4 = math.pi ** 2 / 4.0


class TestMinSpacing:
    def test_simple(self):
        assert cp.min_spacing(np.array([0.2, 0.5, 0.6])) == pytest.approx(0.1)

    def test_two_zero_quadratic(self, fam_sixth):
        got = cp.min_spacing(cp.exact_zeros(fam_sixth, 1))
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_chebyshev_minimum_gap_product_form(self, fam_quarter, m):
        zs = cp.exact_zeros(fam_quarter, m)
        direct = float(np.min(np.diff(chebyshev_zeros_unit(m))))
        assert cp.min_spacing(zs) == pytest.approx(chebyshev_min_gap(m), rel=1e-12)
        assert cp.min_spacing(zs) == pytest.approx(direct, rel=1e-12)

    def test_rejects_singletons(self):
        with pytest.raises(DomainError):
            cp.min_spacing(np.array([0.4]))


class TestSetDistance:
    def test_examples(self):
        assert cp.set_distance(np.array([0.1, 0.9]), np.array([0.5])) == pytest.approx(0.4)
        z = np.array([0.2, 0.7])
        assert cp.set_distance(z, z) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = np.sort(rng.uniform(0, 1, rng.integers(1, 12)))
            b = np.sort(rng.uniform(0, 1, rng.integers(1, 12)))
            brute = min(abs(x - y) for x in a for y in b)
            assert cp.set_distance(a, b) == pytest.approx(brute, abs=0)

    def test_dyadic_zero_vs_critical_closed_forms(self, fam_quarter):
        # degree 4 zeros against {1/2} union degree-2 zeros, all cosines
        z4 = chebyshev_zeros_unit(2)
        y4 = np.sort(np.concatenate([[0.5], chebyshev_zeros_unit(1)]))
        want = min(abs(x - y) for x in z4 for y in y4)
        got = cp.set_distance(cp.exact_zeros(fam_quarter, 2),
                              cp.critical_set(fam_quarter, 2))
        assert got == pytest.approx(want, rel=1e-13)


class TestInterlacing:
    def test_detects_good_and_bad(self):
        big = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        assert cp.interlacing_at_most_one(np.array([0.2, 0.6]), big)
        assert not cp.interlacing_at_most_one(np.array([0.35, 0.45]), big)
        assert not cp.interlacing_at_most_one(np.array([0.05, 0.5]), big)

    def test_consecutive_degrees(self, jacobi_sixth_small):
        for r in range(3, 17):
            zr = cp.eigen_zeros(jacobi_sixth_small, r)
            for s in range(2, r):
                zs = cp.eigen_zeros(jacobi_sixth_small, s)
                assert cp.interlacing_at_most_one(zs, zr)


class TestVerifyOps:
    def test_interlacing_bound_chebyshev(self, jacobi_quarter_small):
        entry = cp.verify_interlacing_bound(jacobi_quarter_small, 8, 4, 2)
        assert entry.passed
        # both sides from cosine closed forms
        z8, z4 = chebyshev_zeros_unit(3), chebyshev_zeros_unit(2)
        want_lhs = min(abs(x - y) for x in z8 for y in z4)
        assert entry.lhs == pytest.approx(want_lhs, rel=1e-9)
        assert entry.rhs == pytest.approx(chebyshev_min_gap(1), rel=1e-9)

    def test_interlacing_bound_small_degrees(self, jacobi_sixth_small):
        assert cp.verify_interlacing_bound(jacobi_sixth_small, 4, 3, 2).passed

    def test_interlacing_bound_preconditions(self, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.verify_interlacing_bound(jacobi_sixth_small, 4, 4, 2)
        with pytest.raises(DomainError):
            cp.verify_interlacing_bound(jacobi_sixth_small, 4, 3, 1)

    def test_critical_bound(self, fam_quarter, fam_sixth):
        e = cp.verify_critical_bound(fam_quarter, 1, 0)
        assert e.passed
        assert cp.verify_critical_bound(fam_sixth, 2, 0).passed
        with pytest.raises(DomainError):
            cp.verify_critical_bound(fam_quarter, 1, 1)

    def test_second_neighbor_bound(self, jacobi_quarter_small, jacobi_sixth_small):
        trivial = cp.verify_second_neighbor_bound(jacobi_sixth_small, 8, 8)
        assert trivial.passed
        assert cp.verify_second_neighbor_bound(jacobi_quarter_small, 16, 4).passed
        assert cp.verify_second_neighbor_bound(jacobi_sixth_small, 8, 4).passed
        with pytest.raises(DomainError):
            cp.verify_second_neighbor_bound(jacobi_sixth_small, 1, 1)

    def test_branch_chain_equality_case(self, fam_sixth):
        # all-L word at the inner endpoint 0 attains the chain value exactly
        res = branch_separation_chain(fam_sixth, "L", 0.0)
        assert res["ok"]
        assert float(res["separation"]) == float(res["chain"])

    def test_branch_lemma_levels(self):
        # the doubling pass must agree with the per-word reference on
        # every word and both inner endpoints
        for desc in ("constant:1/6", "periodic:1/6,1/5", "constant:1/4", "constant:0.02"):
            fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
            for n in range(1, 7):
                entry = cp.verify_branch_lemma(fam, n)
                assert entry.passed, (desc, n)
                assert entry.detail["words"] == 2 ** n
                assert entry.detail["chain_failures"] == 0
                assert entry.detail["min_margin"] >= 1.0
                gn = fam.gamma.gamma(n, "dd")
                want = min(float(branch_separation_chain(fam, w, t)["separation"])
                           for w in cp.BranchWord.all_words(n) for t in (0.0, gn))
                assert entry.rhs == want, (desc, n)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_branch_lemma_checks_both_endpoints(self, fam_sixth, monkeypatch, side):
        # collapse one endpoint family onto the zeros: each of its words
        # then has separation 0 < chain and must be counted as a failure
        real = spacing.all_branch_values

        def collapsed(gamma, n, t, mode):
            return real(gamma, n, 0.0 if t == side else t, mode)

        monkeypatch.setattr(spacing, "all_branch_values", collapsed)
        entry = cp.verify_branch_lemma(fam_sixth, 3)
        assert not entry.passed
        assert entry.detail["chain_failures"] == 8


class TestSpacingReport:
    def test_quarter_degree_two(self, fam_quarter, jacobi_quarter_small):
        report = cp.spacing_report(fam_quarter, jacobi_quarter_small, [2])
        row = report.rows[0]
        assert (row.n, row.s) == (2, 2)
        assert row.lower_eq1 == pytest.approx(1.0 / 256.0)
        assert row.upper_eq1 == pytest.approx(PI_SQ_4)
        assert row.m_n == pytest.approx(math.sqrt(0.5), abs=1e-13)
        assert row.pass_eq1 and row.pass_eq2 is None
        assert row.source == "both"

    def test_sixth_degree_two(self, fam_sixth, jacobi_sixth_small):
        row = cp.spacing_report(fam_sixth, jacobi_sixth_small, [2]).rows[0]
        assert row.m_n == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-13)
        assert row.lower_eq1 == pytest.approx(6.0 ** -4)
        assert row.pass_eq1

    def test_sixth_with_declared_c(self, fam_sixth, jacobi_sixth_small):
        report = cp.spacing_report(fam_sixth, jacobi_sixth_small, [8],
                                   c=Fraction(1, 6))
        row = report.rows[0]
        assert row.s == 4
        assert row.lower_eq2 == pytest.approx((1.0 / 36.0) * 6.0 ** -4)
        assert row.upper_eq2 == pytest.approx(9.0 * math.pi ** 2 * 6.0 ** -4)
        assert row.pass_eq1 and row.pass_eq2

    def test_c_above_infimum_rejected(self, fam_sixth, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [4], c=Fraction(1, 5))

    def test_degree_bounds_checked(self, fam_sixth, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [1])
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [17])

    def test_dyadic_cross_check_and_sources(self, fam_sixth, jacobi_sixth_small):
        m_n, pair, source, _ = spacing_for_degree(fam_sixth, jacobi_sixth_small, 8)
        assert source == "both"
        assert pair >= 0
        m_n2, _, source2, _ = spacing_for_degree(fam_sixth, jacobi_sixth_small, 7)
        assert source2 == "eigensolve"
        assert m_n2 > m_n > 0

    def test_csv_shape(self, fam_sixth, jacobi_sixth_small):
        report = cp.spacing_report(fam_sixth, jacobi_sixth_small, range(2, 9),
                                   c=Fraction(1, 6))
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == ("n,s,M_n,lower_eq1,upper_eq1,lower_eq2,upper_eq2,"
                            "pass_eq1,pass_eq2,margin_lo,margin_hi")
        assert len(lines) == 8
        assert report.all_pass
        assert report.as_json()["rows"][0]["n"] == 2

    def test_row_validation(self):
        with pytest.raises(DomainError):
            SpacingRow(n=2, s=2, m_n=0.5, lower_eq1=1.0, upper_eq1=0.5,
                       lower_eq2=None, upper_eq2=None, pass_eq1=True,
                       pass_eq2=None, margin_lo=1.0, margin_hi=1.0,
                       source="both", min_pair=(0, 1), escalated=False)

    def test_margins_are_ratios(self, fam_sixth, jacobi_sixth_small):
        row = cp.spacing_report(fam_sixth, jacobi_sixth_small, [5]).rows[0]
        assert row.margin_lo == pytest.approx(row.m_n / row.lower_eq1)
        assert row.margin_hi == pytest.approx(row.upper_eq1 / row.m_n)
        assert row.margin_lo >= 1.0 and row.margin_hi >= 1.0


class TestFullVerification:
    def test_small_run_passes(self, fam_sixth, jacobi_sixth_small):
        result = full_verification(fam_sixth, jacobi_sixth_small, n_max=16,
                                   c=Fraction(1, 6), teo1_samples=10,
                                   roro_max_level=4)
        assert result.passed
        checks = {e.check for e in result.entries}
        assert "interlacing_distance_bound" in checks
        assert "critical_distance_bound" in checks
        assert "second_neighbor_bound" in checks
        assert "branch_separation_chain" in checks
        assert "interlacing_at_most_one" in checks
        payload = result.as_json()
        assert payload["passed"] is True
        assert len(payload["spacing"]["rows"]) == 15

    def test_informational_entries_present(self, fam_periodic):
        J = cp.jacobi_for_gamma(fam_periodic, 16)
        result = full_verification(fam_periodic, J, n_max=16, teo1_samples=5,
                                   roro_max_level=3)
        severities = {e.check: e.severity for e in result.entries}
        assert severities["max_gap_sanity"] == "info"
        assert severities["dyadic_spacing_collapse"] == "info"
