"""Coefficient recovery, eigensolves, and Gauss measures."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import cantorpoly as cp
from cantorpoly.errors import DomainError
from cantorpoly.exact import exact_zero_scalars
from cantorpoly.geometry import level_intervals
from cantorpoly.jacobi import moments, sign_alternation_ok

from conftest import chebyshev_zeros_unit


class TestRefinementMeasure:
    def test_depth_one_matches_exact_zeros(self, fam_periodic):
        m = cp.refinement_measure(fam_periodic, 1, 0.0)
        zs = cp.exact_zeros(fam_periodic, 1)
        assert np.allclose(m.nodes, zs.points, atol=0)
        assert np.allclose(m.weights, [0.5, 0.5], atol=0)

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_chebyshev_nodes(self, fam_quarter, N):
        m = cp.refinement_measure(fam_quarter, N, 0.0)
        assert np.max(np.abs(m.nodes - chebyshev_zeros_unit(N))) < 1e-13
        assert np.allclose(m.weights, 2.0 ** -N)

    def test_nodes_populate_every_interval(self, fam_sixth):
        m = cp.refinement_measure(fam_sixth, 3, 0.5)
        assert len(m) == 8
        for iv in level_intervals(fam_sixth.gamma, 3):
            assert np.sum((m.nodes >= iv.lo) & (m.nodes <= iv.hi)) == 1

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.7])
    def test_target_outside_open_interval_rejected(self, fam_sixth, bad):
        with pytest.raises(DomainError):
            cp.refinement_measure(fam_sixth, 3, bad)

    def test_measure_validation(self):
        with pytest.raises(DomainError):
            cp.DiscreteMeasure(np.array([0.2, 0.1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.DiscreteMeasure(np.array([0.1, 0.2]), np.array([0.6, 0.6]))

    def test_csv_roundtrip(self, fam_sixth):
        m = cp.refinement_measure(fam_sixth, 3, 0.25)
        back = cp.DiscreteMeasure.from_csv(m.to_csv())
        assert np.array_equal(back.nodes, m.nodes)
        assert np.array_equal(back.weights, m.weights)


class TestStieltjesLanczos:
    def test_two_point_closed_form(self):
        m = cp.DiscreteMeasure(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        J = cp.stieltjes_lanczos(m, 2)
        assert J.b[0] == pytest.approx(0.5, abs=1e-15)
        assert J.a[0] == pytest.approx(0.2, abs=1e-15)
        assert J.b[1] == pytest.approx(0.5, abs=1e-15)

    def test_first_coefficient_is_mean(self, fam_periodic):
        m = cp.refinement_measure(fam_periodic, 5, 0.0)
        J = cp.stieltjes_lanczos(m, 1)
        assert J.b[0] == pytest.approx(float(m.nodes @ m.weights), abs=1e-15)

    def test_chebyshev_coefficients(self, fam_quarter):
        m = cp.refinement_measure(fam_quarter, 8, 0.0)
        J = cp.stieltjes_lanczos(m, 33)
        assert np.max(np.abs(J.b - 0.5)) < 1e-13
        assert abs(J.a[0] - math.sqrt(1.0 / 8.0)) < 1e-13
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-13

    def test_reproduces_gauss_rule_at_full_length(self, fam_quarter):
        m = cp.refinement_measure(fam_quarter, 3, 0.0)
        J = cp.stieltjes_lanczos(m, 8)
        rule = cp.gauss_measure(J, 8)
        assert np.allclose(rule.nodes, m.nodes, atol=1e-12)
        assert np.allclose(rule.weights, m.weights, atol=1e-12)

    def test_k_larger_than_node_count_rejected(self, fam_sixth):
        m = cp.refinement_measure(fam_sixth, 2, 0.0)
        with pytest.raises(DomainError):
            cp.stieltjes_lanczos(m, 5)


class TestJacobiForGamma:
    def test_chebyshev_certified(self, jacobi_quarter_small):
        J = jacobi_quarter_small
        assert J.valid_length == 16
        assert np.max(np.abs(J.b - 0.5)) < 1e-10
        assert abs(J.a[0] - math.sqrt(1.0 / 8.0)) < 1e-10
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-10

    def test_symmetry_gives_half(self, fam_periodic):
        J = cp.jacobi_for_gamma(fam_periodic, 1)
        assert J.b[0] == pytest.approx(0.5, abs=1e-12)

    def test_cross_module_zero_consistency(self, fam_sixth, jacobi_sixth_small):
        got = cp.eigen_zeros(jacobi_sixth_small, 4).points
        want = cp.exact_zeros(fam_sixth, 2).points
        assert np.max(np.abs(got - want)) < 1e-9

    def test_chebyshev_bit_exact(self, fam_quarter):
        # at gamma = 1/4 every level constant is a power of two, so the
        # unfolding reproduces the affine Chebyshev recurrence exactly
        J = cp.jacobi_for_gamma(fam_quarter, 1024)
        assert J.valid_length == 1024
        assert J.a[0] == math.sqrt(1.0 / 8.0)
        assert np.all(J.a[1:] == 0.25)
        assert np.all(J.b == 0.5)

    @pytest.mark.parametrize("desc", ["constant:1/6", "periodic:1/6,1/5", "periodic:2/9,1/4",
                                      "constant:0.05", "constant:0.02"])
    def test_eigenvalues_match_exact_zeros(self, desc):
        # the dd branch values, rounded once, are the oracle: at gamma = 0.02
        # the double-mode exact_zeros cannot represent the top zero at m = 10
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 1024)
        for m in range(1, 11):
            n = 2 ** m
            got = np.linalg.eigvalsh(np.diag(J.b[:n]) + np.diag(J.a[: n - 1], 1)
                                     + np.diag(J.a[: n - 1], -1))
            want = np.array([float(v) for v in exact_zero_scalars(fam, m, "dd")])
            assert np.max(np.abs(got - want)) <= 1e-14, m

    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_agrees_with_lanczos_on_refinement_measure(self, fam_sixth, fam_periodic, N):
        K = 2 ** (N - 2)
        for fam in (fam_sixth, fam_periodic):
            lanczos = cp.stieltjes_lanczos(cp.refinement_measure(fam, N, 0.0), K)
            J = cp.jacobi_for_gamma(fam, K)
            assert np.max(np.abs(J.a - lanczos.a)) <= 1e-12
            assert np.max(np.abs(J.b - lanczos.b)) <= 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 64, 100, 512])
    def test_prefix_stable(self, fam_periodic, K):
        short, long = cp.jacobi_for_gamma(fam_periodic, K), cp.jacobi_for_gamma(fam_periodic, 2 * K)
        assert np.array_equal(short.a, long.a[: K - 1])
        assert np.array_equal(short.b, long.b[:K])

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["list", "periodic"]),
           values=st.lists(st.one_of(
               st.sampled_from([Fraction(1, 4), Fraction(1, 4) - Fraction(1, 10 ** 12),
                                Fraction(1, 10 ** 3), Fraction(1, 10 ** 6),
                                Fraction(1, 10 ** 12)]),
               st.fractions(Fraction(1, 100), Fraction(1, 4), max_denominator=10 ** 6)),
               min_size=1, max_size=6))
    def test_valid_gamma_gives_coefficients_or_arithmetic_error(self, kind, values):
        # gamma_k = 1/4 right above a tiny gamma_{k+1} cancels bp_k - c_{2n}
        # to nothing in double; that must surface as ArithmeticError
        fam = cp.MapFamily(cp.GammaSequence(kind, tuple(values)))
        try:
            J = cp.jacobi_for_gamma(fam, 1024)
        except ArithmeticError:
            return
        assert np.all(np.isfinite(J.a)) and np.all((J.a > 0) & (J.a < 1))
        assert np.all(J.b == 0.5)

    def test_cancellation_raises_arithmetic_error(self):
        fam = cp.MapFamily(cp.GammaSequence.periodic([Fraction(1, 10 ** 6), Fraction(1, 4)]))
        with pytest.raises(ArithmeticError):
            cp.jacobi_for_gamma(fam, 1024)

    def test_jacobi_csv_roundtrip(self, jacobi_sixth_small):
        back = cp.JacobiMatrix.from_csv(jacobi_sixth_small.to_csv())
        assert np.array_equal(back.a, jacobi_sixth_small.a)
        assert np.array_equal(back.b, jacobi_sixth_small.b)

    def test_matrix_validation(self):
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([-0.1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1]), np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1, 0.2]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1]), np.array([0.5, np.nan]))


class TestOpolyEval:
    def test_base_cases(self, jacobi_sixth_small):
        J = jacobi_sixth_small
        assert cp.opoly_eval(J, 0, 0.37) == 1.0
        assert cp.opoly_eval(J, 1, 0.37) == pytest.approx(0.37 - J.b[0], abs=1e-16)

    def test_matches_exact_dyadic(self, fam_quarter, jacobi_quarter_small):
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.0, 1.0, 20)
        for m in (1, 2, 3, 4):
            got = np.array([cp.opoly_eval(jacobi_quarter_small, 2 ** m, x) for x in xs])
            want = cp.monic_opoly_exact(fam_quarter, m, xs)
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-8 * scale

    def test_degree_beyond_certification_rejected(self, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.opoly_eval(jacobi_sixth_small, 17, 0.3)


@pytest.fixture(scope="module", params=["fam_sixth", "fam_periodic"])
def fam_jacobi_256(request):
    fam = request.getfixturevalue(request.param)
    return fam, cp.jacobi_for_gamma(fam, 256)


class TestEigenZeros:
    def test_single_degree(self, jacobi_sixth_small):
        zs = cp.eigen_zeros(jacobi_sixth_small, 1)
        assert zs.points[0] == jacobi_sixth_small.b[0]

    def test_two_by_two_quadratic_oracle(self):
        J = cp.JacobiMatrix(np.array([0.21]), np.array([0.4, 0.6]))
        tr, det = 1.0, 0.4 * 0.6 - 0.21 ** 2
        disc = math.sqrt(tr * tr - 4 * det)
        want = sorted([(tr - disc) / 2, (tr + disc) / 2])
        assert np.allclose(cp.eigen_zeros(J, 2).points, want, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_chebyshev_cosine_oracle(self, jacobi_quarter_small, fam_quarter, m):
        if 2 ** m > jacobi_quarter_small.valid_length:
            J = cp.stieltjes_lanczos(cp.refinement_measure(fam_quarter, 8, 0.0), 64)
        else:
            J = jacobi_quarter_small
        zs = cp.eigen_zeros(J, 2 ** m)
        assert np.max(np.abs(zs.points - chebyshev_zeros_unit(m))) < 1e-12

    def test_against_lapack(self, jacobi_sixth_small):
        for n in (2, 5, 9, 16):
            ours = cp.eigen_zeros(jacobi_sixth_small, n).points
            lapack = eigh_tridiagonal(jacobi_sixth_small.b[:n],
                                      jacobi_sixth_small.a[:n - 1],
                                      eigvals_only=True)
            assert np.max(np.abs(ours - np.sort(lapack))) < 1e-12

    def test_sign_alternation(self, jacobi_sixth_small):
        for n in (2, 7, 16):
            zs = cp.eigen_zeros(jacobi_sixth_small, n)
            assert sign_alternation_ok(jacobi_sixth_small, zs)

    def test_spectrum_inside_support_hull(self, jacobi_sixth_small):
        for n in (3, 8, 16):
            zs = cp.eigen_zeros(jacobi_sixth_small, n)
            assert zs.points[0] > 0.0 and zs.points[-1] < 1.0

    def test_double_double_escalation(self):
        # a pair split by ~2 eps around 0.5 inside a wide spectrum: below
        # double bisection resolution, so the dd re-run must kick in
        J = cp.JacobiMatrix(np.array([1e-16, 1e-16, 1e-16]),
                            np.array([0.1, 0.9, 0.5, 0.5]))
        zs = cp.eigen_zeros(J, 4)
        assert zs.escalated
        assert zs.points_dd is not None
        gap = cp.min_spacing(zs)
        assert 0.0 < gap < 1e-14

    def test_provenance(self, jacobi_sixth_small):
        assert cp.eigen_zeros(jacobi_sixth_small, 4).provenance == "eigensolve"

    @pytest.mark.parametrize("m", [6, 8])
    def test_matches_exact_dyadic_zeros(self, fam_jacobi_256, m):
        fam, J = fam_jacobi_256
        zs = cp.eigen_zeros(J, 2 ** m)
        assert not zs.escalated
        assert np.max(np.abs(zs.points - cp.exact_zeros(fam, m).points)) <= 1e-14

    def test_strictly_ascending(self, fam_jacobi_256):
        _, J = fam_jacobi_256
        for n in range(2, 65):
            assert np.all(np.diff(cp.eigen_zeros(J, n).points) > 0), n


class TestGaussMeasure:
    def test_rule_size_one(self, jacobi_sixth_small):
        rule = cp.gauss_measure(jacobi_sixth_small, 1)
        assert rule.nodes[0] == jacobi_sixth_small.b[0]
        assert rule.weights[0] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_chebyshev_equal_weights(self, jacobi_quarter_small, m):
        rule = cp.gauss_measure(jacobi_quarter_small, 2 ** m)
        assert np.max(np.abs(rule.weights - 2.0 ** -m)) < 1e-13

    def test_polynomial_exactness(self, jacobi_sixth_small):
        rng = np.random.default_rng(23)
        for r in (3, 6, 8):
            rule = cp.gauss_measure(jacobi_sixth_small, r)
            mom = moments(jacobi_sixth_small, 2 * r - 1)
            coeffs = rng.uniform(-1.0, 1.0, 2 * r)
            want = float(coeffs @ mom)
            got = float(rule.weights @ np.polyval(coeffs[::-1], rule.nodes))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_weights_positive_nodes_simple(self, jacobi_sixth_small):
        for r in (2, 5, 11, 16):
            rule = cp.gauss_measure(jacobi_sixth_small, r)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_dyadic_rules_have_equal_weights(self, fam_jacobi_256):
        # at dyadic sizes the Gauss rule of mu_gamma puts mass 2^-m on the
        # one zero inside each level-m basic interval
        _, J = fam_jacobi_256
        for m in range(1, 9):
            rule = cp.gauss_measure(J, 2 ** m)
            assert np.max(np.abs(rule.weights - 2.0 ** -m)) <= 1e-12, m

    def test_relanczos_self_consistency(self, jacobi_sixth_small):
        rule = cp.gauss_measure(jacobi_sixth_small, 4)
        back = cp.stieltjes_lanczos(rule, 4)
        assert np.max(np.abs(back.b[:3] - jacobi_sixth_small.b[:3])) < 1e-12
        assert np.max(np.abs(back.a[:3] - jacobi_sixth_small.a[:3])) < 1e-12


class TestMoments:
    def test_matches_direct_sum(self, fam_sixth):
        m = cp.refinement_measure(fam_sixth, 4, 0.0)
        J = cp.stieltjes_lanczos(m, 16)
        mom = moments(J, 9)
        direct = [float(m.weights @ m.nodes ** j) for j in range(10)]
        assert np.allclose(mom, direct, rtol=1e-12, atol=1e-15)

    def test_degree_cap(self, jacobi_sixth_small):
        with pytest.raises(DomainError):
            moments(jacobi_sixth_small, 2 * jacobi_sixth_small.valid_length)

